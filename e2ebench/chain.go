package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime/debug"
	"time"

	abcfhe "repro"
	"repro/internal/ckks"
	"repro/internal/fftfp"
)

// chain-pn14: a keyless server running the bootstrap-shaped chain at
// PN14 — CoeffsToSlots at StartLevel 19 with 3 butterfly levels, the
// degree-15 EvalMod on both halves at MidLevel, SlotsToCoeffs on the
// CoeffsToSlots outputs. Key switching, linear transforms, EvalPoly and
// the key set's memory dominate; client and wire code barely run.

const (
	chainStart     = 19
	chainLevels    = 3
	chainRotations = 37 // HomomorphicDFTRotations(8192, 3)
	chainInputs    = 2
	// Worst-slot precision floors. EvalMod against the fftfp.SinSurrogate
	// oracle uses the floor of TestPN15EvalModRoundTrip; the C2S→S2C
	// round trip measures ≈43 bits here and is gated well below that.
	chainEvalModFloorBits   = 20
	chainRoundTripFloorBits = 30
)

type chainSetup struct {
	owner  *abcfhe.KeyOwner
	server *abcfhe.Server
	dft    *abcfhe.HomomorphicDFT
	em     *abcfhe.EvalMod
	evk    *abcfhe.EvaluationKeys
	rots   []int
	msgs   [][]complex128
	cts    []*abcfhe.Ciphertext // inputs at chainStart

	evkBytes                int
	genS, importS, compileS float64
}

func newChainSetup(seed uint64) (*chainSetup, error) {
	rng := rand.New(rand.NewPCG(seed, 0xC4A1))
	s := &chainSetup{}
	lo, hi := seeds(rng)
	var err error
	if s.owner, err = abcfhe.NewKeyOwner(abcfhe.PN14, lo, hi); err != nil {
		return nil, err
	}
	pk, err := s.owner.ExportPublicKey()
	if err != nil {
		return nil, err
	}
	dlo, dhi := seeds(rng)
	device, err := abcfhe.NewEncryptor(pk, dlo, dhi)
	if err != nil {
		return nil, err
	}
	defer device.Close()
	if s.server, err = abcfhe.NewServer(abcfhe.PN14); err != nil {
		return nil, err
	}

	t0 := time.Now()
	if s.dft, err = s.server.NewHomomorphicDFT(abcfhe.HomomorphicDFTConfig{StartLevel: chainStart, Levels: chainLevels}); err != nil {
		return nil, err
	}
	if s.em, err = s.server.NewEvalMod(abcfhe.EvalModConfig{Level: s.dft.MidLevel()}); err != nil {
		return nil, err
	}
	s.compileS = time.Since(t0).Seconds()

	s.rots = abcfhe.HomomorphicDFTRotations(s.server.Slots(), chainLevels)
	t0 = time.Now()
	blob, err := s.owner.ExportEvaluationKeys(abcfhe.EvalKeyConfig{MaxLevel: chainStart, Rotations: s.rots, Conjugate: true})
	if err != nil {
		return nil, err
	}
	s.genS = time.Since(t0).Seconds()
	s.evkBytes = len(blob)
	// The owner and the server share this process only for the benchmark:
	// release the owner's key-generation garbage before the server imports,
	// so peak memory is the server's.
	debug.FreeOSMemory()
	t0 = time.Now()
	if s.evk, err = s.server.ImportEvaluationKeys(blob); err != nil {
		return nil, err
	}
	s.importS = time.Since(t0).Seconds()

	for i := 0; i < chainInputs; i++ {
		msg := randomMessage(rng, s.server.Slots())
		ct, err := device.EncodeEncrypt(msg)
		if err != nil {
			return nil, err
		}
		if ct, err = s.server.DropLevel(ct, chainStart); err != nil {
			return nil, err
		}
		s.msgs, s.cts = append(s.msgs, msg), append(s.cts, ct)
	}
	return s, nil
}

func (s *chainSetup) Close() {
	s.owner.Close()
	s.server.Close()
}

// chainOut is one chain's outputs.
type chainOut struct{ re, im, modRe, modIm, back *abcfhe.Ciphertext }

// chain runs one C2S → EvalMod×2 → S2C; span times each stage when the
// run is traced (nil: untraced).
func (s *chainSetup) chain(ct *abcfhe.Ciphertext, span func(name string, f func())) (o chainOut, err error) {
	if span == nil {
		span = func(_ string, f func()) { f() }
	}
	span("ckks.c2s", func() { o.re, o.im, err = s.server.CoeffsToSlots(ct, s.dft, s.evk) })
	if err != nil {
		return o, fmt.Errorf("CoeffsToSlots: %w", err)
	}
	span("ckks.evalmod", func() { o.modRe, err = s.server.EvalMod(o.re, s.em, s.evk) })
	if err != nil {
		return o, fmt.Errorf("EvalMod: %w", err)
	}
	span("ckks.evalmod", func() { o.modIm, err = s.server.EvalMod(o.im, s.em, s.evk) })
	if err != nil {
		return o, fmt.Errorf("EvalMod: %w", err)
	}
	span("ckks.s2c", func() { o.back, err = s.server.SlotsToCoeffs(o.re, o.im, s.dft, s.evk) })
	if err != nil {
		return o, fmt.Errorf("SlotsToCoeffs: %w", err)
	}
	return o, nil
}

// check decrypts one chain's outputs: EvalMod must track the plaintext
// oracle applied to the decrypted CoeffsToSlots outputs, and S2C∘C2S must
// restore the message. It returns the failure, if any, and both
// precisions in bits.
func (s *chainSetup) check(msg []complex128, o chainOut) (failure string, modBits, tripBits float64) {
	worstMod := 0.0
	for _, h := range [][2]*abcfhe.Ciphertext{{o.re, o.modRe}, {o.im, o.modIm}} {
		in, err := s.owner.DecryptDecode(h[0])
		if err != nil {
			return err.Error(), 0, 0
		}
		got, err := s.owner.DecryptDecode(h[1])
		if err != nil {
			return err.Error(), 0, 0
		}
		want := make([]complex128, len(in))
		for i, z := range in {
			want[i] = complex(
				fftfp.SinSurrogate(real(z), s.em.Degree(), s.em.Range()),
				fftfp.SinSurrogate(imag(z), s.em.Degree(), s.em.Range()))
		}
		worstMod = math.Max(worstMod, worstErr(want, got))
	}
	back, err := s.owner.DecryptDecode(o.back)
	if err != nil {
		return err.Error(), 0, 0
	}
	modBits, tripBits = -math.Log2(worstMod), -math.Log2(worstErr(msg, back))
	switch {
	case !(modBits >= chainEvalModFloorBits):
		failure = fmt.Sprintf("EvalMod precision %.1f bits, floor %d", modBits, chainEvalModFloorBits)
	case !(tripBits >= chainRoundTripFloorBits):
		failure = fmt.Sprintf("S2C∘C2S precision %.1f bits, floor %d", tripBits, chainRoundTripFloorBits)
	}
	return failure, modBits, tripBits
}

func runChain(r *run) error {
	// One set-up per run: generating and importing the 37-rotation key
	// set takes most of the run's budget, so it is not repeated.
	s, err := setUp(r, 1, func() (*chainSetup, error) { return newChainSetup(r.opts.seed) })
	if err != nil {
		return err
	}
	defer s.Close()

	r.gate("rotation_keys", int64(len(s.rots)), chainRotations)
	r.gate("evk_wire_bytes", int64(s.evkBytes), int64(evalKeyWireBytes(ckks.PN14, chainStart, s.rots, true)))
	r.gate("mid_level", int64(s.dft.MidLevel()), int64(s.em.Level()))

	var times []float64
	var modBits, tripBits []float64
	var outputs [][]byte
	deadline := r.deadline()
	for i := 0; i < 1 || time.Now().Before(deadline); i++ {
		var o chainOut
		d := timed(func() { o, err = s.chain(s.cts[i%chainInputs], nil) })
		if err != nil {
			r.op(err.Error())
			continue
		}
		failure, mb, tb := s.check(s.msgs[i%chainInputs], o)
		r.op(failure)
		times, modBits, tripBits = append(times, d), append(modBits, mb), append(tripBits, tb)
		if i == 0 {
			for _, ct := range []*abcfhe.Ciphertext{o.re, o.im, o.modRe, o.modIm, o.back} {
				b, err := s.server.SerializeCiphertext(ct)
				if err != nil {
					return err
				}
				outputs = append(outputs, b)
			}
		}
	}
	r.setDigest(outputs)
	r.record["precision_bits"] = map[string]float64{"evalmod_min": minOf(modBits), "round_trip_min": minOf(tripBits)}
	p50, tail := r.latency("chain", times)
	r.named["chain_p50_s"] = p50 / 1000
	r.metrics["p50_ms"], r.metrics["tail_ms"] = p50, tail
	r.metrics["ops_per_s"] = 1000 / mean(times)
	if !r.opts.trace {
		return nil
	}

	r.metrics["ckks.evk_gen_s"] = s.genS
	r.metrics["ckks.evk_import_s"] = s.importS
	r.metrics["ckks.plan_compile_s"] = s.compileS
	r.metrics["ckks.evk_wire_mb"] = float64(s.evkBytes) / (1 << 20)
	t := newTracer()
	var traced []float64
	deadline = r.deadline()
	for i := 0; i < 1 || time.Now().Before(deadline); i++ {
		var o chainOut
		d := timed(func() {
			o, err = s.chain(s.cts[i%chainInputs], func(name string, f func()) { t.span(i, name, f) })
		})
		if err != nil {
			r.op(err.Error())
			continue
		}
		failure, _, _ := s.check(s.msgs[i%chainInputs], o)
		r.op(failure)
		traced = append(traced, d)

		// Unit key-switch costs: a rotation at the start level and a
		// relinearized product at the EvalMod input level.
		t.span(i, "ckks.rotate", func() { _, err = s.server.Rotate(s.cts[i%chainInputs], s.rots[0], s.evk) })
		if err != nil {
			r.op("Rotate: " + err.Error())
		}
		t.span(i, "ckks.mulrelin", func() { _, err = s.server.Mul(o.re, o.re, s.evk) })
		if err != nil {
			r.op("Mul: " + err.Error())
		}
	}
	for _, name := range []string{"ckks.c2s", "ckks.evalmod", "ckks.s2c"} {
		r.metrics[name+"_s"] = t.p50(name) / 1000
	}
	r.metrics["ckks.rotate_ms"] = t.p50("ckks.rotate")
	r.metrics["ckks.mulrelin_ms"] = t.p50("ckks.mulrelin")
	r.metrics["chain.residual_s"] = t.printParts("chain", p50, []string{"ckks.c2s", "ckks.evalmod", "ckks.s2c"}, "s")
	r.metrics["trace.overhead_ms"] = median(traced) - p50
	fmt.Printf("trace overhead: chain traced %.1f ms - untraced %.1f ms = %.1f ms\n",
		median(traced), p50, r.metrics["trace.overhead_ms"])
	return nil
}

// evalKeyWireBytes is the wire size of a hybrid evaluation-key set with
// the relinearization key, the given rotations and optionally the
// conjugation key, computed from the geometry alone.
func evalKeyWireBytes(spec ckks.ParamSpec, maxLevel int, steps []int, conj bool) int {
	return ckks.EvalKeyWireBytes(spec, ckks.EvalKeyInfo{
		Gadget: ckks.GadgetHybrid, Digits: spec.SpecialLimbs, MaxLevel: maxLevel,
		HasRelin: true, HasConj: conj, Steps: steps,
	})
}

// minOf is the smallest of xs, or 0 when there are none.
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}
