// Command e2ebench is the repository's end-to-end benchmark. It runs one
// named workload against the public API (the abcfhe roles and
// internal/serve), checks every output, and prints one JSON result line:
//
//	go run . --workload client-pn16 --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// no instrumentation in the timed path. With --trace 1 the same workload
// first repeats its untraced loop, then runs again with every call into a
// layer's public functions timed from this package, and the result
// carries the per-layer metrics. The line before the result is a record:
// host fingerprint, the workload's named metrics with percentile and
// sample count, the output digest and the shape counts. See README.md.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/lanes"
)

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	serveRate float64 // serve-hot open-loop arrival rate, requests/s
	spoolDir  string
	commit    string
	source    string
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"client-pn16": runClient,
	"chain-pn14":  runChain,
	"serve-hot":   func(r *run) error { return runServe(r, false) },
	"serve-evict": func(r *run) error { return runServe(r, true) },
}

// endToEnd lists the metrics every untraced run reports, whatever its
// workload; README.md gives what each one times on each workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics every traced run reports. A workload fills
// the ones its layers exercise; the rest read 0 and the record names
// them under "not_measured".
var perLayer = []struct{ name, unit string }{
	{"client.upload_ms", "ms"},
	{"client.download_ms", "ms"},
	{"fftfp.encode_ms", "ms"},
	{"ckks.encode_ms", "ms"},
	{"ring.sample_ms", "ms"},
	{"ring.ntt_ms", "ms"},
	{"ring.intt_ms", "ms"},
	{"ckks.encrypt_ms", "ms"},
	{"ckks.marshal_ms", "ms"},
	{"ckks.ct_wire_bytes", "bytes"},
	{"ckks.unmarshal_ms", "ms"},
	{"ckks.decrypt_ms", "ms"},
	{"ckks.decode_ms", "ms"},
	{"rns.combine_ms", "ms"},
	{"fftfp.decode_ms", "ms"},
	{"client.residual_ms", "ms"},
	{"ckks.evk_gen_s", "s"},
	{"ckks.evk_import_s", "s"},
	{"ckks.plan_compile_s", "s"},
	{"ckks.evk_wire_mb", "MiB"},
	{"ckks.c2s_s", "s"},
	{"ckks.evalmod_s", "s"},
	{"ckks.s2c_s", "s"},
	{"ckks.rotate_ms", "ms"},
	{"ckks.mulrelin_ms", "ms"},
	{"chain.residual_s", "s"},
	{"serve.server_ms", "ms"},
	{"serve.compute_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.reload_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cache_lookups", "count"},
	{"serve.reloads", "count"},
	{"serve.evictions", "count"},
	{"serve.batch_mean", "count"},
	{"serve.throttled", "count"},
	{"serve.open_p50_ms", "ms"},
	{"serve.gen_lag_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(2)
	}
	r := &run{opts: opts, metrics: map[string]float64{}, record: map[string]any{}, named: map[string]float64{}}
	if err := workloads[opts.workload](r); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", opts.workload+":", err)
		os.Exit(1)
	}
	if !r.finish() {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input derives from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement window per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.Float64Var(&o.serveRate, "serve-rate", 2, "serve-hot open-loop arrival rate (requests/s)")
	fs.StringVar(&o.spoolDir, "spool-dir", ".bench_build/spool", "serve key-spool directory")
	fs.StringVar(&o.commit, "commit", "unknown", "commit of the measured source, for the record")
	fs.StringVar(&o.source, "source-digest", "unknown", "digest of the measured source, for the record")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return o, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	if o.seconds <= 0 || *trace < 0 || *trace > 1 || o.serveRate <= 0 {
		return o, fmt.Errorf("--seconds and --serve-rate must be positive and --trace 0 or 1")
	}
	o.trace = *trace == 1
	return o, nil
}

// run accumulates one invocation's counts, metrics and record.
type run struct {
	opts      options
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
	record    map[string]any
	named     map[string]float64 // the workload's metrics under its own names, for the record
}

// op counts one attempted operation; a non-empty failure marks it failed.
func (r *run) op(failure string) {
	r.attempted++
	if failure != "" {
		r.fail(failure)
	}
}

// fail records a failed operation or correctness gate.
func (r *run) fail(msg string) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
	fmt.Fprintln(os.Stderr, "e2ebench: FAIL:", msg)
}

// gate checks a deterministic shape count; a mismatch fails the run.
func (r *run) gate(name string, got, want int64) {
	shape, _ := r.record["shape"].(map[string]any)
	if shape == nil {
		shape = map[string]any{}
		r.record["shape"] = shape
	}
	shape[name] = got
	if got != want {
		r.fail(fmt.Sprintf("shape %s = %d, want %d", name, got, want))
	}
}

// window is the length of one measurement phase. A traced run spends the
// first half of --seconds untraced and the second half traced.
func (r *run) window() time.Duration {
	s := r.opts.seconds
	if r.opts.trace {
		s /= 2
	}
	return time.Duration(s * float64(time.Second))
}

// deadline is the end of a measurement phase starting now.
func (r *run) deadline() time.Time { return time.Now().Add(r.window()) }

// setDigest records the workload's output digest: SHA-256 over the
// output bytes of a fixed number of its first operations, in operation
// order, so the value is comparable across runs and commits at one seed.
func (r *run) setDigest(outputs [][]byte) {
	h := sha256.New()
	for _, o := range outputs {
		h.Write(o)
	}
	r.record["digest"] = hex.EncodeToString(h.Sum(nil))
}

// latency records a latency distribution under the workload's own
// metric names — name_p50_ms, name_tail_ms, the tail's percentile and the
// sample count — and returns its median and tail.
func (r *run) latency(name string, samples []float64) (p50, tail float64) {
	p50 = median(samples)
	tail, pct := tailOf(samples)
	r.named[name+"_p50_ms"], r.named[name+"_tail_ms"] = p50, tail
	r.named[name+"_tail_pct"], r.named[name+"_n"] = pct, float64(len(samples))
	return p50, tail
}

// finish prints the record and the result line; it reports whether the
// run was correct.
func (r *run) finish() bool {
	correct := r.failed == 0 && r.attempted > 0
	r.record["workload"] = r.opts.workload
	r.record["seed"] = r.opts.seed
	r.record["seconds"] = r.opts.seconds
	r.record["trace"] = r.opts.trace
	r.record["host"] = host(r.opts)
	r.record["named"] = r.named
	r.named["fail_ratio"] = float64(r.failed) / math.Max(1, float64(r.attempted))
	r.named["setup_s"] = r.metrics["setup_s"]
	if len(r.failures) > 0 {
		r.record["failures"] = r.failures
	}
	list := endToEnd
	if r.opts.trace {
		list = perLayer
	} else {
		r.metrics["peak_rss_mb"] = peakRSSMB()
		r.named["peak_rss_mb"] = r.metrics["peak_rss_mb"]
	}
	metrics := map[string]any{}
	var missing []string
	for _, m := range list {
		v, ok := r.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.name)
			v = 0
		}
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	if len(missing) > 0 {
		if !r.opts.trace {
			correct = false
			fmt.Fprintln(os.Stderr, "e2ebench: end-to-end metrics not measured:", missing)
		}
		r.record["not_measured"] = missing
	}
	rec, err := json.Marshal(r.record)
	if err != nil {
		rec, _ = json.Marshal(map[string]string{"error": err.Error()})
	}
	fmt.Println("record", string(rec))
	res, _ := json.Marshal(map[string]any{
		"correct": correct, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	fmt.Println(string(res))
	return correct
}

// host fingerprints the machine and build the numbers come from.
func host(o options) map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": o.commit, "source_digest": o.source,
		"backend": lanes.DefaultBackend().Name(),
	}
}

// peakRSSMB is the process's VmHWM in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// median of xs (the mean of the middle two for an even count).
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

// tailOf returns the highest percentile of xs with at least ten samples
// above it, and that percentile. With ten samples or fewer no such
// percentile exists; the maximum stands in, reported as percentile 100.
func tailOf(xs []float64) (v, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n <= 10 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timed runs f and returns its wall time in ms.
func timed(f func()) float64 {
	t0 := time.Now()
	f()
	return ms(time.Since(t0))
}

// randomMessage draws a message of uniform slots in [-0.5, 0.5)².
func randomMessage(rng *rand.Rand, slots int) []complex128 {
	msg := make([]complex128, slots)
	for i := range msg {
		msg[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	return msg
}

// worstErr is the largest slot-wise distance between two messages.
func worstErr(want, got []complex128) float64 {
	worst := 0.0
	for i := range want {
		if d := math.Hypot(real(want[i]-got[i]), imag(want[i]-got[i])); d > worst {
			worst = d
		}
	}
	return worst
}

// seeds derives a party's 128-bit key or randomness seed from the rng.
func seeds(rng *rand.Rand) (uint64, uint64) { return rng.Uint64(), rng.Uint64() }

// setupRepeats is how many times a workload with a set-up of a few
// seconds builds it per run.
const setupRepeats = 3

// setUp builds a workload's set-up n times, closing all but the last,
// and reports the median build time as setup_s.
func setUp[T interface{ Close() }](r *run, n int, build func() (T, error)) (T, error) {
	var s T
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			s.Close()
		}
		t0 := time.Now()
		var err error
		if s, err = build(); err != nil {
			return s, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.metrics["setup_s"] = median(times)
	r.record["setup_s_samples"] = times
	return s, nil
}

// tracer keeps the traced run's spans in memory: per span name, the time
// spent in it by each operation (a name entered twice in one operation,
// such as EvalMod on both halves, sums).
type tracer struct {
	spans map[string]map[int]float64
}

func newTracer() *tracer { return &tracer{spans: map[string]map[int]float64{}} }

// span runs f as operation op's call into the named layer function.
func (t *tracer) span(op int, name string, f func()) {
	d := timed(f)
	m := t.spans[name]
	if m == nil {
		m = map[int]float64{}
		t.spans[name] = m
	}
	m[op] += d
}

// p50 is the median over operations of the time spent in name.
func (t *tracer) p50(name string) float64 {
	var xs []float64
	for _, d := range t.spans[name] {
		xs = append(xs, d)
	}
	return median(xs)
}

// printParts prints an operation's untraced median beside the medians of
// its top-level parts and returns the residual: whole minus the parts.
func (t *tracer) printParts(whole string, wholeP50 float64, parts []string, unit string) float64 {
	scale := 1.0
	if unit == "s" {
		scale = 1e-3
	}
	fmt.Printf("parts of %s (untraced p50 %.4f %s):\n", whole, wholeP50*scale, unit)
	sum := 0.0
	for _, p := range parts {
		v := t.p50(p)
		sum += v
		fmt.Printf("  %-16s %10.4f %s  %5.1f%%\n", p, v*scale, unit, 100*v/wholeP50)
	}
	res := wholeP50 - sum
	fmt.Printf("  %-16s %10.4f %s  %5.1f%%\n", "residual", res*scale, unit, 100*res/wholeP50)
	return res * scale
}
