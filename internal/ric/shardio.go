package ric

import (
	"bufio"
	"fmt"
	"io"
)

// Shard-range serialization: the distributed runtime (internal/shard)
// partitions the global sample sequence [0, Θ) into disjoint ranges,
// has each worker generate its range in an offset pool, and ships the
// ranges back to the coordinator, which splices them in order into one
// offset-0 pool. Because sample i is always drawn from PRNG stream i,
// the spliced pool is byte-identical to in-process generation no matter
// how the ranges were cut.
//
// Layout (little endian), format IMCS v1:
//
//	magic    [4]byte  "IMCS"
//	version  uint32   (1)
//	seed     uint64   ┐
//	model    uint32   │ identity block, same as IMCP v2
//	wdigest  uint64   │ (seed, model, weight digest, n, r)
//	n        uint64   │
//	r        uint64   ┘
//	lo       uint64   first global sample index in the range
//	hi       uint64   one past the last global sample index
//	per sample (hi-lo records): same body as IMCP v2
//
// The identity block and per-sample codec are shared with serialize.go,
// so the formats cannot drift; the only difference is the [lo, hi)
// range replacing IMCP's implicit [0, samples) prefix.

var shardMagic = [4]byte{'I', 'M', 'C', 'S'}

const shardVersion = 1

// ExportRange serializes global samples [lo, hi) of the pool in IMCS
// v1. The range must lie inside the pool's generated span
// [Offset(), Offset()+NumSamples()); lo == hi writes a valid empty
// range (a worker acknowledging a zero-width assignment).
func (p *Pool) ExportRange(w io.Writer, lo, hi int) error {
	if lo > hi {
		return fmt.Errorf("ric: ExportRange bounds inverted: [%d, %d)", lo, hi)
	}
	if lo < p.offset || hi > p.offset+len(p.samples) {
		return fmt.Errorf("ric: ExportRange [%d, %d) outside the pool's generated span [%d, %d)",
			lo, hi, p.offset, p.offset+len(p.samples))
	}
	enc := &poolEncoder{bw: bufio.NewWriterSize(w, 1<<20)}
	if _, err := enc.bw.Write(shardMagic[:]); err != nil {
		return fmt.Errorf("ric: write shard magic: %w", err)
	}
	if err := enc.put32(shardVersion); err != nil {
		return err
	}
	if err := p.encodeIdentity(enc); err != nil {
		return err
	}
	if err := enc.put64(uint64(lo)); err != nil {
		return err
	}
	if err := enc.put64(uint64(hi)); err != nil {
		return err
	}
	covers := p.SampleCovers()
	for i := lo - p.offset; i < hi-p.offset; i++ {
		if err := enc.encodeSample(p.samples[i], covers[i]); err != nil {
			return err
		}
	}
	if err := enc.bw.Flush(); err != nil {
		return fmt.Errorf("ric: flush shard export: %w", err)
	}
	return nil
}

// ImportRange appends a shard export to the pool and returns the
// [lo, hi) global range it covered. The export's identity block must
// match the pool (same seed, model, weighted graph, partition shape),
// and its lo must equal the pool's next global sample index
// Offset()+NumSamples() — ranges splice in order, gap-free, so the
// resulting sample sequence is exactly what GenerateCtx would have
// produced. Decoding is as defensive as ReadInto: every count is
// validated, and the stream must end exactly at the last declared
// sample.
func (p *Pool) ImportRange(r io.Reader) (lo, hi int, err error) {
	d := newPoolDecoder(r, "shard export")
	var magic [4]byte
	if _, err := io.ReadFull(d.cr, magic[:]); err != nil {
		return 0, 0, fmt.Errorf("ric: shard export truncated reading magic: %w", err)
	}
	if magic != shardMagic {
		return 0, 0, fmt.Errorf("ric: bad shard magic %q", magic)
	}
	version, err := d.get32("version", inHeader)
	if err != nil {
		return 0, 0, err
	}
	if version != shardVersion {
		return 0, 0, fmt.Errorf("ric: unsupported shard export version %d (want %d)", version, shardVersion)
	}
	if err := p.checkIdentity(d); err != nil {
		return 0, 0, err
	}
	lo64, err := d.get64("range lo", inHeader)
	if err != nil {
		return 0, 0, err
	}
	hi64, err := d.get64("range hi", inHeader)
	if err != nil {
		return 0, 0, err
	}
	if lo64 > hi64 || hi64 >= 1<<31 {
		return 0, 0, fmt.Errorf("ric: shard export range [%d, %d) invalid", lo64, hi64)
	}
	lo, hi = int(lo64), int(hi64)
	if next := p.offset + len(p.samples); lo != next {
		return 0, 0, fmt.Errorf("ric: shard export starts at sample %d but the pool's next sample is %d — ranges must splice in order, gap-free", lo, next)
	}
	for i := lo64; i < hi64; i++ {
		if err := p.decodeSample(d, i); err != nil {
			return 0, 0, err
		}
	}
	if err := d.end(); err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}
