package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// opRecord is one measured operation.
type opRecord struct {
	idx     int       // position in the workload's operation sequence
	start   time.Time // when the operation was due (open loop) or sent
	latency float64   // seconds
	ans     answer
	err     error
	// hit classifies a serve-zipf request by what the client knew when
	// it sent it: 1 when an earlier request for the same key had
	// already completed, -1 when no earlier request for it had been
	// sent, 0 otherwise.
	hit int
	// queueWait and run split a job's server-side time (jobs-open).
	queueWait, run float64
}

// phase is one measured stretch of a workload: its operations plus the
// process counters read at both ends of the timed wall.
type phase struct {
	ops       []opRecord
	attempted int
	wall      float64 // seconds
	cpu       float64 // process user+sys seconds inside the wall
	mem0      runtime.MemStats
	mem1      runtime.MemStats
}

// okOps returns the operations that completed and passed their checks.
func (p *phase) okOps() []opRecord {
	out := make([]opRecord, 0, len(p.ops))
	for _, op := range p.ops {
		if op.err == nil {
			out = append(out, op)
		}
	}
	return out
}

// latencies returns the sorted latencies of the successful operations.
func (p *phase) latencies() []float64 {
	ok := p.okOps()
	out := make([]float64, len(ok))
	for i, op := range ok {
		out[i] = op.latency
	}
	sort.Float64s(out)
	return out
}

// median returns the median of xs (0 when empty); xs need not be sorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamples is how many samples must lie beyond the reported tail
// percentile.
const tailSamples = 10

// tail returns the highest percentile of sorted xs with at least
// tailSamples samples beyond it, the percentile itself, and the sample
// count. With too few samples it falls back to the median.
func tail(sorted []float64) (value, percentile float64, n int) {
	n = len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	i := n - 1 - tailSamples
	if i < n/2 {
		return median(sorted), 50, n
	}
	return sorted[i], 100 * float64(i+1) / float64(n), n
}

// processCPU returns the process's user+sys CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// cpuModel returns the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitCommit returns the commit of the git work tree rooted at the
// working directory, read from .git without running git, or
// "unavailable" when there is none.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unavailable"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref)))
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(id))
}

// writeHeader prints the environment header every output starts with.
func writeHeader(w io.Writer, o options) {
	fmt.Fprintf(w, "# imcperf workload=%s seed=%d seconds=%d trace=%v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "# go=%s platform=%s/%s gomaxprocs=%d nproc=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(w, "# cpu=%q commit=%s\n", cpuModel(), gitCommit())
}

// runtimeCounters derives the runtime.* layer metrics over a phase.
func runtimeCounters(p *phase, ops int) (allocMBPerOp, gcPerOp, gcCPU float64) {
	if ops == 0 {
		return 0, 0, p.mem1.GCCPUFraction
	}
	alloc := float64(p.mem1.TotalAlloc-p.mem0.TotalAlloc) / (1 << 20)
	gc := float64(p.mem1.NumGC - p.mem0.NumGC)
	return alloc / float64(ops), gc / float64(ops), p.mem1.GCCPUFraction
}
