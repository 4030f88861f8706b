package ric

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Pool serialization: RIC sampling dominates end-to-end runtime on
// large instances, so a pool is worth persisting when several solver
// configurations will be compared against the same sample set, and the
// pool cache shares snapshots across requests.
//
// Layout (little endian), format v2:
//
//	magic    [4]byte  "IMCP"
//	version  uint32   (2)
//	seed     uint64   the pool's PRNG seed (sample i ← stream i)
//	model    uint32   diffusion model tag (IC=1, LT=2)
//	wdigest  uint64   graph.WeightDigest of the sampled graph
//	n        uint64   node count (must match the pool's graph on load)
//	r        uint64   community count (must match the partition)
//	samples  uint64   sample count at save time
//	per sample: comm uint32, threshold uint32, numMembers uint32,
//	            covers uint32, then per cover:
//	            node uint32, words uint32, words×uint64 mask
//
// v2 exists because v1 carried no identity: a v1 snapshot saved under a
// different seed or model passed every shape check on a same-shaped
// graph, and a subsequent DoubleCtx drew extension samples from the
// *pool's* seed — silently mixing PRNG streams. The v2 header pins
// seed, model, and the exact weighted graph, so a loaded snapshot is
// guaranteed to extend the sample sequence it claims to be a prefix of.
// v1 streams are rejected outright: they cannot be trusted.
//
// The per-sample record body is shared with the IMCS shard-range export
// (shardio.go) via poolEncoder/poolDecoder, so the two formats cannot
// drift apart.
//
// The inverted index and community frequencies are rebuilt on load.

var poolMagic = [4]byte{'I', 'M', 'C', 'P'}

const (
	poolVersion = 2
	// poolHeaderSize is the fixed v2 header length: magic, version,
	// seed, model, wdigest, n, r, samples.
	poolHeaderSize = 4 + 4 + 8 + 4 + 8 + 8 + 8 + 8
)

// poolEncoder writes the little-endian primitives and per-sample
// records shared by the IMCP (full pool) and IMCS (shard range)
// formats.
type poolEncoder struct {
	bw      *bufio.Writer
	scratch [8]byte
}

func (e *poolEncoder) put32(v uint32) error {
	binary.LittleEndian.PutUint32(e.scratch[:4], v)
	_, err := e.bw.Write(e.scratch[:4])
	return err
}

func (e *poolEncoder) put64(v uint64) error {
	binary.LittleEndian.PutUint64(e.scratch[:], v)
	_, err := e.bw.Write(e.scratch[:])
	return err
}

// encodeSample writes one sample record: comm, threshold, numMembers,
// cover count, then each cover's node, mask width, and mask words.
func (e *poolEncoder) encodeSample(smp Sample, covers []NodeCover) error {
	if err := e.put32(uint32(smp.Comm)); err != nil {
		return err
	}
	if err := e.put32(uint32(smp.Threshold)); err != nil {
		return err
	}
	if err := e.put32(uint32(smp.NumMembers)); err != nil {
		return err
	}
	if err := e.put32(uint32(len(covers))); err != nil {
		return err
	}
	for _, nc := range covers {
		if err := e.put32(uint32(nc.Node)); err != nil {
			return err
		}
		if err := e.put32(uint32(len(nc.Bits))); err != nil {
			return err
		}
		for _, word := range nc.Bits {
			if err := e.put64(word); err != nil {
				return err
			}
		}
	}
	return nil
}

// Save serializes the pool's samples and cover index in format v2. The
// header carries the pool's identity (seed, model, weight digest), so
// ReadInto can refuse a snapshot that would fork the PRNG streams.
//
// Only offset-0 pools can be saved: the IMCP header has no range field,
// so a shard pool's samples would silently be misread as the sequence
// prefix on load. Shards persist through ExportRange instead.
func (p *Pool) Save(w io.Writer) error {
	if p.offset != 0 {
		return fmt.Errorf("ric: Save requires an offset-0 pool, this shard starts at stream %d (use ExportRange)", p.offset)
	}
	enc := &poolEncoder{bw: bufio.NewWriterSize(w, 1<<20)}
	if _, err := enc.bw.Write(poolMagic[:]); err != nil {
		return fmt.Errorf("ric: write magic: %w", err)
	}
	if err := enc.put32(poolVersion); err != nil {
		return err
	}
	if err := p.encodeIdentity(enc); err != nil {
		return err
	}
	if err := enc.put64(uint64(len(p.samples))); err != nil {
		return err
	}
	// Rebuild the per-sample cover lists from the inverted index.
	covers := p.SampleCovers()
	for i, smp := range p.samples {
		if err := enc.encodeSample(smp, covers[i]); err != nil {
			return err
		}
	}
	if err := enc.bw.Flush(); err != nil {
		return fmt.Errorf("ric: flush pool: %w", err)
	}
	return nil
}

// encodeIdentity writes the shared identity block: seed, model tag,
// weight digest, node count, community count.
func (p *Pool) encodeIdentity(enc *poolEncoder) error {
	if err := enc.put64(p.seed); err != nil {
		return err
	}
	if err := enc.put32(uint32(p.model)); err != nil {
		return err
	}
	if err := enc.put64(p.g.WeightDigest()); err != nil {
		return err
	}
	if err := enc.put64(uint64(p.g.NumNodes())); err != nil {
		return err
	}
	return enc.put64(uint64(p.part.NumCommunities()))
}

// countingReader tracks how many bytes have been consumed so decode
// errors can name the exact offset of the problem.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// poolDecoder reads the primitives and per-sample records shared by the
// IMCP and IMCS formats. kind names the stream ("pool snapshot" or
// "shard export") in error messages.
type poolDecoder struct {
	cr      *countingReader
	kind    string
	scratch [8]byte
}

func newPoolDecoder(r io.Reader, kind string) *poolDecoder {
	return &poolDecoder{cr: &countingReader{r: bufio.NewReaderSize(r, 1<<20)}, kind: kind}
}

// fieldAt locates a decoded field for the truncation error: the sample,
// cover and mask-word indices, each -1 above the field's level. The
// label is formatted only when a read fails, so the decode loop does not
// pay a Sprintf per field.
type fieldAt struct{ sample, cover, word int64 }

// inHeader locates the stream-level fields (version, identity, counts).
var inHeader = fieldAt{-1, -1, -1}

// label renders the field's name as error messages spell it, e.g.
// "sample 3 cover 1 mask word 0".
func (at fieldAt) label(field string) string {
	switch {
	case at.sample < 0:
		return field
	case at.cover < 0:
		return fmt.Sprintf("sample %d %s", at.sample, field)
	case at.word < 0:
		return fmt.Sprintf("sample %d cover %d %s", at.sample, at.cover, field)
	default:
		return fmt.Sprintf("sample %d cover %d %s %d", at.sample, at.cover, field, at.word)
	}
}

func (d *poolDecoder) get32(field string, at fieldAt) (uint32, error) {
	if _, err := io.ReadFull(d.cr, d.scratch[:4]); err != nil {
		return 0, fmt.Errorf("ric: %s truncated reading %s: %w", d.kind, at.label(field), noEOF(err))
	}
	return binary.LittleEndian.Uint32(d.scratch[:4]), nil
}

func (d *poolDecoder) get64(field string, at fieldAt) (uint64, error) {
	if _, err := io.ReadFull(d.cr, d.scratch[:]); err != nil {
		return 0, fmt.Errorf("ric: %s truncated reading %s: %w", d.kind, at.label(field), noEOF(err))
	}
	return binary.LittleEndian.Uint64(d.scratch[:]), nil
}

// end verifies the stream finishes exactly where the declared records
// do: a truncated-then-concatenated or otherwise corrupt file that
// still parses as a prefix would previously be accepted silently.
func (d *poolDecoder) end() error {
	if _, err := io.ReadFull(d.cr, d.scratch[:1]); err == nil {
		return fmt.Errorf("ric: %s has trailing bytes after the last sample at offset %d", d.kind, d.cr.n-1)
	} else if err != io.EOF {
		return fmt.Errorf("ric: %s read after last sample at offset %d: %w", d.kind, d.cr.n, err)
	}
	return nil
}

// checkIdentity reads the shared identity block and validates it
// against the pool: seed, model tag, and weight digest must match
// exactly — a stream taken under a different seed or diffusion model,
// or over a different weighted graph of the same shape, is rejected
// instead of silently forking the PRNG streams on the next Double.
func (p *Pool) checkIdentity(d *poolDecoder) error {
	seed, err := d.get64("seed", inHeader)
	if err != nil {
		return err
	}
	if seed != p.seed {
		return fmt.Errorf("ric: %s was sampled with seed %d, pool has seed %d — loading would mix PRNG streams", d.kind, seed, p.seed)
	}
	model, err := d.get32("model", inHeader)
	if err != nil {
		return err
	}
	if model != uint32(p.model) {
		return fmt.Errorf("ric: %s was sampled under model %d, pool uses model %d", d.kind, model, uint32(p.model))
	}
	wdigest, err := d.get64("weight digest", inHeader)
	if err != nil {
		return err
	}
	if want := p.g.WeightDigest(); wdigest != want {
		return fmt.Errorf("ric: %s weight digest %016x does not match graph digest %016x — different edges or weights", d.kind, wdigest, want)
	}
	n, err := d.get64("node count", inHeader)
	if err != nil {
		return err
	}
	if int(n) != p.g.NumNodes() {
		return fmt.Errorf("ric: %s was sampled over %d nodes, graph has %d", d.kind, n, p.g.NumNodes())
	}
	r64, err := d.get64("community count", inHeader)
	if err != nil {
		return err
	}
	if int(r64) != p.part.NumCommunities() {
		return fmt.Errorf("ric: %s has %d communities, partition has %d", d.kind, r64, p.part.NumCommunities())
	}
	return nil
}

// decodeSample reads, validates, and appends one sample record. i names
// the record in error messages. Every count is validated against the
// pool's graph and partition (community range, member counts,
// thresholds, exact mask widths), so truncated or corrupt input
// surfaces as a descriptive error naming the field being read — never
// a panic.
func (p *Pool) decodeSample(d *poolDecoder, i uint64) error {
	at := fieldAt{int64(i), -1, -1}
	comm, err := d.get32("community", at)
	if err != nil {
		return err
	}
	if int(comm) >= p.part.NumCommunities() {
		return fmt.Errorf("ric: sample %d: community %d out of range [0, %d)", i, comm, p.part.NumCommunities())
	}
	threshold, err := d.get32("threshold", at)
	if err != nil {
		return err
	}
	numMembers, err := d.get32("member count", at)
	if err != nil {
		return err
	}
	// A sample's member count is the size of its source community and
	// its threshold sits in [1, members]; the encoder can emit nothing
	// else, so anything different is corruption, not a format variant.
	if want := len(p.part.Community(int(comm)).Members); int(numMembers) != want {
		return fmt.Errorf("ric: sample %d: %d members recorded but community %d has %d", i, numMembers, comm, want)
	}
	if threshold < 1 || threshold > numMembers {
		return fmt.Errorf("ric: sample %d: threshold %d out of [1, %d members]", i, threshold, numMembers)
	}
	coverCount, err := d.get32("cover count", at)
	if err != nil {
		return err
	}
	if int(coverCount) > p.g.NumNodes() {
		return fmt.Errorf("ric: sample %d: %d covers exceed node count %d", i, coverCount, p.g.NumNodes())
	}
	id := int32(len(p.samples))
	p.samples = append(p.samples, Sample{
		Comm:       int32(comm),
		Threshold:  int32(threshold),
		NumMembers: int32(numMembers),
		TouchCount: int32(coverCount),
	})
	p.commFreq[comm]++
	wantWords := (uint32(numMembers) + maskWordBits - 1) / maskWordBits
	for c := uint32(0); c < coverCount; c++ {
		at.cover = int64(c)
		node, err := d.get32("node", at)
		if err != nil {
			return err
		}
		if int(node) >= p.g.NumNodes() {
			return fmt.Errorf("ric: sample %d: cover node %d out of range [0, %d)", i, node, p.g.NumNodes())
		}
		words, err := d.get32("mask width", at)
		if err != nil {
			return err
		}
		// Masks carry one bit per member, so the width is fully
		// determined; a short mask would later index out of range in
		// the solvers, a long one would corrupt union counts.
		if words != wantWords {
			return fmt.Errorf("ric: sample %d: mask of %d words for %d members (want %d)", i, words, numMembers, wantWords)
		}
		mask := make(Mask, words)
		for wi := range mask {
			word, err := d.get64("mask word", fieldAt{at.sample, at.cover, int64(wi)})
			if err != nil {
				return err
			}
			mask[wi] = word
		}
		p.index[node] = append(p.index[node], CoverEntry{Sample: id, Bits: mask})
	}
	return nil
}

// ReadInto deserializes samples written by Save into the pool, which
// must be freshly created over the same graph and partition with the
// same seed and model, and still empty. Decoding is defensive on two
// axes:
//
// Identity: the v2 header's seed, model tag, and weight digest must
// match the pool's exactly — a snapshot taken under a different seed or
// diffusion model, or over a different weighted graph of the same
// shape, is rejected instead of silently forking the PRNG streams on
// the next Double. v1 streams are rejected with an upgrade error: they
// carry no identity and cannot be trusted.
//
// Shape: every count is validated against the pool's graph and
// partition (community range, member counts, thresholds, exact mask
// widths), the stream must end exactly at the last declared sample
// (trailing bytes are corruption, not slack), and truncated or corrupt
// input surfaces as a descriptive error naming the field being read —
// never a panic.
//
// Only offset-0 pools can load a snapshot: IMCP records the sequence
// prefix [0, samples), which is not the slice a shard pool holds.
func (p *Pool) ReadInto(r io.Reader) error {
	if p.offset != 0 {
		return fmt.Errorf("ric: ReadInto requires an offset-0 pool, this shard starts at stream %d (use ImportRange)", p.offset)
	}
	if len(p.samples) != 0 {
		return fmt.Errorf("ric: ReadInto requires an empty pool, have %d samples", len(p.samples))
	}
	d := newPoolDecoder(r, "pool snapshot")
	var magic [4]byte
	if _, err := io.ReadFull(d.cr, magic[:]); err != nil {
		return fmt.Errorf("ric: pool snapshot truncated reading magic: %w", err)
	}
	if magic != poolMagic {
		return fmt.Errorf("ric: bad pool magic %q", magic)
	}
	version, err := d.get32("version", inHeader)
	if err != nil {
		return err
	}
	if version == 1 {
		return fmt.Errorf("ric: pool snapshot is format v1, which carries no identity (seed/model/weights) and cannot be validated; regenerate the pool and re-save as v%d", poolVersion)
	}
	if version != poolVersion {
		return fmt.Errorf("ric: unsupported pool version %d (want %d)", version, poolVersion)
	}
	if err := p.checkIdentity(d); err != nil {
		return err
	}
	count, err := d.get64("sample count", inHeader)
	if err != nil {
		return err
	}
	if count >= 1<<31 {
		return fmt.Errorf("ric: sample count %d out of range", count)
	}
	for i := uint64(0); i < count; i++ {
		if err := p.decodeSample(d, i); err != nil {
			return err
		}
	}
	return d.end()
}

// noEOF normalizes a bare io.EOF from a partial ReadFull into
// io.ErrUnexpectedEOF: inside a declared record, running out of bytes
// is always truncation, never a clean end of stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
