package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	abcfhe "repro"
	"repro/internal/ckks"
	"repro/internal/serve"
)

// serve-hot and serve-evict: serve.New behind a loopback listener at
// PN15, with two sessions over two evaluation-key blobs (rotations
// {1,2,4} and {1,2,4,8}, level 8) and a seeded mul/rotate/innersum/dot mix
// on level-8 inputs from a fleet of devices.
//
//   - serve-hot: a cache budget that holds both blobs, and two callers in
//     a closed loop, one connection each. Every key lookup hits. The
//     traced run adds an open loop at a fixed Poisson rate.
//   - serve-evict: a budget that fits one blob, and one caller in a
//     closed loop alternating sessions, so every request after the first
//     evicts one key set and reloads the other.
//
// The end-to-end latencies come from closed loops because an open loop
// at half capacity is not steady here: with the same arrival trace, the
// median of one 15-second run moved by 12–21% from run to run, as small
// shifts in host speed changed which requests overlapped.

const (
	serveLevel     = 8
	serveSpan      = 4
	serveWeights   = 8
	serveDevices   = 2
	serveDigestOps = 8
	serveTol       = 1e-4 // worst-slot error of a decrypted response
)

var (
	serveOps = []string{"mul", "rotate", "innersum", "dot"}
	// serveMix weights the ops 2:1:1:1. mul and rotate cost about a third
	// of innersum and dot, so an even mix splits latencies into two equal
	// modes and puts the median in the gap between them, where any
	// jitter moves it far; with three fast ops to two slow ones the median
	// and the tail each sit inside a mode.
	serveMix       = []string{"mul", "mul", "rotate", "innersum", "dot"}
	serveRotations = [][]int{{1, 2, 4}, {1, 2, 4, 8}}
	serveSteps     = []int{1, 2, 4} // rotate steps both blobs carry
)

type serveSetup struct {
	owner   *abcfhe.KeyOwner
	local   *abcfhe.Server // direct calls: input levels, compute and reload probes
	devices []*abcfhe.Encryptor
	blobs   [][]byte
	msgs    [][2][]complex128 // per device
	inputs  [][2][]byte       // per device, serialized at serveLevel
	weights []complex128
	wText   []byte

	svc      *serve.Service
	hs       *http.Server
	served   chan error
	base     string
	hc       *http.Client
	sessions []string // one per blob
	spool    string
}

func newServeSetup(seed uint64, evict bool, spoolDir string) (s *serveSetup, err error) {
	rng := rand.New(rand.NewPCG(seed, 0x5E4E))
	s = &serveSetup{}
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	lo, hi := seeds(rng)
	if s.owner, err = abcfhe.NewKeyOwner(abcfhe.PN15, lo, hi); err != nil {
		return nil, err
	}
	pk, err := s.owner.ExportPublicKey()
	if err != nil {
		return nil, err
	}
	for _, rots := range serveRotations {
		blob, err := s.owner.ExportEvaluationKeys(abcfhe.EvalKeyConfig{MaxLevel: serveLevel, Rotations: rots})
		if err != nil {
			return nil, err
		}
		s.blobs = append(s.blobs, blob)
	}
	if s.local, err = abcfhe.NewServer(abcfhe.PN15); err != nil {
		return nil, err
	}
	for d := 0; d < serveDevices; d++ {
		dlo, dhi := seeds(rng)
		dev, err := abcfhe.NewEncryptor(pk, dlo, dhi)
		if err != nil {
			return nil, err
		}
		s.devices = append(s.devices, dev)
		var msgs [2][]complex128
		var in [2][]byte
		for j := range msgs {
			msgs[j] = randomMessage(rng, dev.Slots())
			ct, err := dev.EncodeEncrypt(msgs[j])
			if err != nil {
				return nil, err
			}
			if ct, err = s.local.DropLevel(ct, serveLevel); err != nil {
				return nil, err
			}
			if in[j], err = s.local.SerializeCiphertext(ct); err != nil {
				return nil, err
			}
		}
		s.msgs, s.inputs = append(s.msgs, msgs), append(s.inputs, in)
	}
	var wt strings.Builder
	for i := 0; i < serveWeights; i++ {
		w := complex(rng.Float64()-0.5, rng.Float64()-0.5)
		s.weights = append(s.weights, w)
		fmt.Fprintf(&wt, "%s %s\n", strconv.FormatFloat(real(w), 'g', -1, 64), strconv.FormatFloat(imag(w), 'g', -1, 64))
	}
	s.wText = []byte(wt.String())

	// The service, with a budget that holds both blobs or only one.
	budget := int64(len(s.blobs[1])) * 5 / 2
	if evict {
		budget = int64(len(s.blobs[1])) * 3 / 2
	}
	if s.spool, err = os.MkdirTemp(spoolDir, "spool-"); err != nil {
		return nil, err
	}
	if s.svc, err = serve.New(serve.Config{CacheBytes: budget, Workers: 2, SpoolDir: s.spool}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.hs = &http.Server{Handler: s.svc}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	conns := 2
	if evict {
		conns = 1
	}
	s.hc = &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	for _, blob := range s.blobs {
		status, body, err := s.post("/v1/sessions", "application/octet-stream", blob)
		if err != nil {
			return nil, err
		}
		if status != http.StatusCreated {
			return nil, fmt.Errorf("registering a session: HTTP %d: %s", status, body)
		}
		id, ok := strings.CutPrefix(string(body), `{"session":"`)
		if !ok {
			return nil, fmt.Errorf("registering a session: reply %.80s", body)
		}
		id, _, _ = strings.Cut(id, `"`)
		s.sessions = append(s.sessions, id)
	}
	return s, nil
}

func (s *serveSetup) Close() {
	if s.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		s.hs.Shutdown(ctx)
		cancel()
		<-s.served
		s.hc.CloseIdleConnections()
	}
	if s.svc != nil {
		s.svc.Close()
	}
	if s.spool != "" {
		os.RemoveAll(s.spool)
	}
	if s.owner != nil {
		s.owner.Close()
	}
	if s.local != nil {
		s.local.Close()
	}
	for _, d := range s.devices {
		d.Close()
	}
}

func (s *serveSetup) post(path, contentType string, body []byte) (int, []byte, error) {
	resp, err := s.hc.Post(s.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// request is one generated operation: which op, on which device's
// inputs, under which session's keys.
type request struct {
	op       string
	dev, key int // key indexes blobs and sessions alike
	by       int // rotate step
}

func (q request) String() string {
	return fmt.Sprintf("%s|dev%d|blob%d|by%d", q.op, q.dev, q.key, q.by)
}

// The traffic shape — the op sequence and the open loop's arrival times —
// is part of the workload's definition, drawn from this fixed seed like
// the rate is fixed: an FHE op costs the same on any data, so with the
// shape fixed a run's latencies measure the program, not how a seed
// happened to clump arrivals, slow ops or same-session requests (which
// the service batches). The run's seed draws everything the ops compute
// on: keys, messages, devices and rotation steps.
const serveShapeSeed = 0x5EB0

// genRequests builds n requests: ops in shuffled blocks of serveMix and
// (for serve-hot) sessions from shape, so every run carries the same ops
// and sessions in the same order; devices and rotation steps from data.
// serve-evict alternates sessions, starting with the one whose keys are
// resident.
func genRequests(shape, data *rand.Rand, n int, evict bool, firstKey int) []request {
	reqs := make([]request, n)
	var block []string
	for i := range reqs {
		if len(block) == 0 {
			block = append([]string(nil), serveMix...)
			shape.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		q := request{op: block[0], dev: data.IntN(serveDevices), key: shape.IntN(len(serveRotations))}
		block = block[1:]
		if q.op == "rotate" {
			q.by = serveSteps[data.IntN(len(serveSteps))]
		}
		if evict {
			q.key = (firstKey + i) % len(serveRotations)
		}
		reqs[i] = q
	}
	return reqs
}

// body builds the request's path and frames, as abc-load does.
func (s *serveSetup) body(q request) (string, []byte) {
	in := s.inputs[q.dev]
	path := "/v1/eval/" + q.op + "?session=" + s.sessions[q.key]
	switch q.op {
	case "mul":
		return path, serve.EncodeFrames(in[0], in[1])
	case "rotate":
		return path + "&by=" + strconv.Itoa(q.by), serve.EncodeFrames(in[0])
	case "innersum":
		return path + "&span=" + strconv.Itoa(serveSpan), serve.EncodeFrames(in[0])
	default: // dot
		return path + "&rescale=0", serve.EncodeFrames(in[0], s.wText)
	}
}

// direct runs the request's op on the local server with keys evk and
// returns the serialized result — what the service must answer.
func (s *serveSetup) direct(q request, evk *abcfhe.EvaluationKeys) ([]byte, error) {
	a, err := s.local.DeserializeCiphertext(s.inputs[q.dev][0])
	if err != nil {
		return nil, err
	}
	var out, b *abcfhe.Ciphertext
	switch q.op {
	case "mul":
		if b, err = s.local.DeserializeCiphertext(s.inputs[q.dev][1]); err != nil {
			return nil, err
		}
		out, err = s.local.Mul(a, b, evk)
	case "rotate":
		out, err = s.local.Rotate(a, q.by, evk)
	case "innersum":
		out, err = s.local.InnerSum(a, serveSpan, evk)
	default:
		out, err = s.local.DotPlain(a, s.weights, evk)
	}
	if err != nil {
		return nil, err
	}
	return s.local.SerializeCiphertext(out)
}

// want is the plaintext result of the request, and how many leading
// slots of it are defined (dot defines slot 0 only).
func (s *serveSetup) want(q request) ([]complex128, int) {
	a, b := s.msgs[q.dev][0], s.msgs[q.dev][1]
	n := len(a)
	out := make([]complex128, n)
	switch q.op {
	case "mul":
		for i := range out {
			out[i] = a[i] * b[i]
		}
	case "rotate":
		for i := range out {
			out[i] = a[(i+q.by)%n]
		}
	case "innersum":
		for i := range out {
			for j := 0; j < serveSpan; j++ {
				out[i] += a[(i+j)%n]
			}
		}
	default:
		for j, w := range s.weights {
			out[0] += w * a[j]
		}
		return out, 1
	}
	return out, n
}

// checkResponse decrypts a response frame set and compares it with the
// plaintext result.
func (s *serveSetup) checkResponse(q request, body []byte) string {
	parts, err := serve.ReadFrames(bytes.NewReader(body), 1, int64(len(body)))
	if err != nil || len(parts) != 1 {
		return fmt.Sprintf("%s: response frames: %v", q, err)
	}
	ct, err := s.owner.DeserializeCiphertext(parts[0])
	if err != nil {
		return fmt.Sprintf("%s: response: %v", q, err)
	}
	got, err := s.owner.DecryptDecode(ct)
	if err != nil {
		return fmt.Sprintf("%s: decrypt: %v", q, err)
	}
	want, defined := s.want(q)
	if e := worstErr(want[:defined], got[:defined]); !(e <= serveTol) {
		return fmt.Sprintf("%s: decrypted result off by %.3g (tolerance %g)", q, e, serveTol)
	}
	return ""
}

// scrape reads the service's /metrics counters: the summed latency
// histogram over all ops and the unlabelled counters.
func (s *serveSetup) scrape() (map[string]float64, error) {
	resp, err := s.hc.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		if base, _, labelled := strings.Cut(name, "{"); labelled {
			if base != "abcfhe_serve_op_latency_seconds_sum" && base != "abcfhe_serve_op_latency_seconds_count" {
				continue
			}
			name = base
		}
		m[name] += v
	}
	return m, nil
}

// outcome is one request's result as the client saw it.
type outcome struct {
	lat, wire, lag float64 // ms: from due, from send, send − due
	status         int
	body           []byte
	err            error
}

// send issues one request and times it.
func (s *serveSetup) send(q request, due time.Time) outcome {
	path, body := s.body(q)
	t0 := time.Now()
	status, resp, err := s.post(path, serve.ContentTypeFrames, body)
	end := time.Now()
	return outcome{lat: ms(end.Sub(due)), wire: ms(end.Sub(t0)), lag: ms(t0.Sub(due)), status: status, body: resp, err: err}
}

// openLoop sends reqs at their due offsets from start over two sender
// goroutines (one connection each). A request due while both are busy
// waits for one; that wait is the generator's lag.
func (s *serveSetup) openLoop(reqs []request, offsets []time.Duration) []outcome {
	out := make([]outcome, len(reqs))
	start := time.Now()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = s.send(reqs[i], start.Add(offsets[i]))
			}
		}()
	}
	for i := range reqs {
		time.Sleep(time.Until(start.Add(offsets[i])))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// closedLoop sends reqs in order from callers goroutines, each waiting
// for its reply before taking the next request, until the deadline has
// passed and at least serveDigestOps were sent. It returns the outcomes
// of the requests sent, which are always a prefix of reqs.
func (s *serveSetup) closedLoop(reqs []request, callers int, deadline time.Time) []outcome {
	out := make([]outcome, len(reqs))
	var next, sent atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || (i >= serveDigestOps && !time.Now().Before(deadline)) {
					return
				}
				out[i] = s.send(reqs[i], time.Now())
				sent.Add(1)
			}
		}()
	}
	wg.Wait()
	return out[:sent.Load()]
}

func runServe(r *run, evict bool) error {
	if err := os.MkdirAll(r.opts.spoolDir, 0o700); err != nil {
		return err
	}
	s, err := setUp(r, setupRepeats, func() (*serveSetup, error) { return newServeSetup(r.opts.seed, evict, r.opts.spoolDir) })
	if err != nil {
		return err
	}
	defer s.Close()
	r.gate("evk_wire_bytes_rot3", int64(len(s.blobs[0])), serveEvkBytes(3))
	r.gate("evk_wire_bytes_rot4", int64(len(s.blobs[1])), serveEvkBytes(4))

	// Warm-up, untimed: every op once under each session, ending on the
	// session serve-evict's window starts with.
	for k := range s.sessions {
		for _, op := range serveOps {
			q := request{op: op, key: k, by: 1}
			if o := s.send(q, time.Now()); o.err != nil || o.status != http.StatusOK {
				return fmt.Errorf("warm-up %s: HTTP %d %v %.120s", q, o.status, o.err, o.body)
			}
		}
	}

	before, err := s.scrape()
	if err != nil {
		return err
	}
	shape := rand.New(rand.NewPCG(serveShapeSeed, 0))
	data := rand.New(rand.NewPCG(r.opts.seed, 0x10AD))
	callers, firstKey := 2, 0
	if evict {
		callers, firstKey = 1, len(s.sessions)-1
	}
	reqs := genRequests(shape, data, 1<<16, evict, firstKey)
	start := time.Now()
	outs := s.closedLoop(reqs, callers, r.deadline())
	elapsed := time.Since(start)
	after, err := s.scrape()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	reqs = reqs[:len(outs)]
	g := newResponses()
	lats, wires, _ := g.tally(r, reqs, outs)
	var outputs [][]byte
	for _, o := range outs[:serveDigestOps] {
		outputs = append(outputs, o.body)
	}
	r.setDigest(outputs)

	lookups := delta("abcfhe_serve_cache_hits_total") + delta("abcfhe_serve_cache_misses_total")
	reloads := delta("abcfhe_serve_cache_reloads_total")
	if evict {
		r.gate("reloads", int64(reloads), int64(len(reqs)-1))
	} else {
		r.gate("reloads", int64(reloads), 0)
		r.gate("cache_misses", int64(delta("abcfhe_serve_cache_misses_total")), 0)
		r.gate("throttled", int64(g.throttled+int(delta("abcfhe_serve_throttled_total"))), 0)
	}
	p50, tail := r.latency("serve", lats)
	r.metrics["p50_ms"], r.metrics["tail_ms"] = p50, tail
	r.metrics["ops_per_s"] = float64(len(lats)) / elapsed.Seconds()
	r.named["serve_ops_per_s"] = r.metrics["ops_per_s"]
	if !r.opts.trace {
		g.decryptCheck(r, s)
		return nil
	}

	serverMS := 1000 * delta("abcfhe_serve_op_latency_seconds_sum") / delta("abcfhe_serve_op_latency_seconds_count")
	r.metrics["serve.server_ms"] = serverMS
	r.metrics["serve.http_ms"] = mean(wires) - serverMS
	r.metrics["serve.cache_lookups"] = lookups
	r.metrics["serve.cache_hit_ratio"] = delta("abcfhe_serve_cache_hits_total") / max(1, lookups)
	r.metrics["serve.reloads"] = reloads
	r.metrics["serve.evictions"] = delta("abcfhe_serve_cache_evictions_total")
	r.metrics["serve.batch_mean"] = delta("abcfhe_serve_batched_requests_total") / max(1, delta("abcfhe_serve_batches_total"))
	r.metrics["serve.throttled"] = float64(g.throttled)
	r.metrics["trace.overhead_ms"] = 0 // no spans in the request path
	if !evict {
		// The same traffic as an open loop of independent users arriving
		// at the fixed Poisson rate: the queueing and generator lag a
		// closed loop cannot show. Latency counts from when a request was
		// due.
		var offsets []time.Duration
		for t := shape.ExpFloat64() / r.opts.serveRate; t < r.window().Seconds(); t += shape.ExpFloat64() / r.opts.serveRate {
			offsets = append(offsets, time.Duration(t*float64(time.Second)))
		}
		oreqs := genRequests(shape, data, len(offsets), false, 0)
		olats, _, olags := g.tally(r, oreqs, s.openLoop(oreqs, offsets))
		r.metrics["serve.open_p50_ms"] = median(olats)
		r.metrics["serve.gen_lag_ms"] = mean(olags)
		r.record["serve_rate_per_s"] = r.opts.serveRate
	}
	g.decryptCheck(r, s)

	// Direct probes on the local server: one blob import per key set
	// (the reload), then every distinct request once, whose bytes must
	// match the service's.
	t := newTracer()
	evks := make([]*abcfhe.EvaluationKeys, len(s.blobs))
	for k, blob := range s.blobs {
		t.span(k, "serve.reload", func() { evks[k], err = s.local.ImportEvaluationKeys(blob) })
		if err != nil {
			return err
		}
	}
	compute := map[string]float64{}
	for i, k := range g.keys() {
		q := g.reqOf[k]
		var out []byte
		t.span(i, "serve.compute", func() { out, err = s.direct(q, evks[q.key]) })
		compute[k] = t.spans["serve.compute"][i]
		if err != nil {
			r.fail(fmt.Sprintf("%s: direct call: %v", q, err))
		} else if sha256.Sum256(serve.EncodeFrames(out)) != g.first[k] {
			r.fail(fmt.Sprintf("%s: service bytes differ from the direct call", q))
		}
	}
	var perReq []float64
	for i, o := range outs {
		if o.err == nil && o.status == http.StatusOK {
			perReq = append(perReq, compute[reqs[i].String()])
		}
	}
	r.metrics["serve.reload_ms"] = t.p50("serve.reload")
	r.metrics["serve.compute_ms"] = mean(perReq)
	r.metrics["serve.queue_ms"] = serverMS - r.metrics["serve.compute_ms"]
	fmt.Printf("parts of serve request (closed loop, client-observed mean %.2f ms):\n", mean(wires))
	for _, p := range []string{"serve.compute_ms", "serve.queue_ms", "serve.http_ms"} {
		fmt.Printf("  %-16s %10.2f ms  %5.1f%%\n", p, r.metrics[p], 100*r.metrics[p]/mean(wires))
	}
	fmt.Println("trace overhead: 0 (serve per-layer numbers come from /metrics and direct calls, not spans in the request path)")
	return nil
}

// responses gates a run's replies: transport, status, and byte identity
// of every reply to the same (op, device, blob, step) across the run.
type responses struct {
	first     map[string][32]byte
	firstBody map[string][]byte
	reqOf     map[string]request
	throttled int
}

func newResponses() *responses {
	return &responses{first: map[string][32]byte{}, firstBody: map[string][]byte{}, reqOf: map[string]request{}}
}

// tally gates each outcome and returns, for the good ones, the latency
// from due, the latency from send, and the send lag, in ms.
func (g *responses) tally(r *run, reqs []request, outs []outcome) (lats, wires, lags []float64) {
	for i, o := range outs {
		q := reqs[i]
		switch {
		case o.err != nil:
			r.op(fmt.Sprintf("%s: %v", q, o.err))
			continue
		case o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable:
			g.throttled++
			r.op(fmt.Sprintf("%s: refused, HTTP %d", q, o.status))
			continue
		case o.status != http.StatusOK:
			r.op(fmt.Sprintf("%s: HTTP %d: %.120s", q, o.status, o.body))
			continue
		}
		k, sum := q.String(), sha256.Sum256(o.body)
		if prev, ok := g.first[k]; !ok {
			g.first[k], g.firstBody[k], g.reqOf[k] = sum, o.body, q
		} else if prev != sum {
			r.op(fmt.Sprintf("%s: response bytes differ from an earlier identical request", q))
			continue
		}
		r.op("")
		lats, wires, lags = append(lats, o.lat), append(wires, o.wire), append(lags, o.lag)
	}
	return lats, wires, lags
}

func (g *responses) keys() []string {
	keys := make([]string, 0, len(g.first))
	for k := range g.first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// decryptCheck decrypts one reply per distinct request and compares it
// with the plaintext result.
func (g *responses) decryptCheck(r *run, s *serveSetup) {
	for _, k := range g.keys() {
		if f := s.checkResponse(g.reqOf[k], g.firstBody[k]); f != "" {
			r.fail(f)
		}
	}
	r.record["distinct_requests"] = len(g.first)
}

// serveEvkBytes is the expected wire size of a level-8 PN15 hybrid key
// set with the relinearization key and the given number of rotations.
func serveEvkBytes(rotations int) int64 {
	steps := make([]int, rotations)
	for i := range steps {
		steps[i] = 1 << i
	}
	return int64(evalKeyWireBytes(ckks.PN15, serveLevel, steps, false))
}
