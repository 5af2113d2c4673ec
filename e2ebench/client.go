package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"time"

	abcfhe "repro"
	"repro/internal/ckks"
	"repro/internal/fftfp"
	"repro/internal/prng"
)

// client-pn16: one device at PN16 in a closed loop with a single caller.
// Each operation uploads a full-depth message (Encryptor.EncodeEncrypt +
// SerializeCiphertext) and downloads it back as a 2-limb result
// (KeyOwner.DeserializeCiphertext + DecryptDecode). Between the two, a
// Server drops the upload to 2 limbs; that step is the server's work and
// is not timed.

const (
	clientMessages  = 4    // distinct messages, cycled
	clientDigestOps = 4    // operations whose bytes form the digest
	clientReplyAt   = 2    // limbs of the downloaded result (paper §V-B)
	clientTol       = 1e-6 // worst-slot error a 2-limb PN16 download may show
)

type clientSetup struct {
	owner  *abcfhe.KeyOwner
	device *abcfhe.Encryptor
	server *abcfhe.Server
	pk, sk []byte
	devLo  uint64
	devHi  uint64
	msgs   [][]complex128
}

func newClientSetup(seed uint64) (*clientSetup, error) {
	rng := rand.New(rand.NewPCG(seed, 0xC11E))
	s := &clientSetup{}
	lo, hi := seeds(rng)
	var err error
	if s.owner, err = abcfhe.NewKeyOwner(abcfhe.PN16, lo, hi); err != nil {
		return nil, err
	}
	if s.pk, err = s.owner.ExportPublicKey(); err != nil {
		return nil, err
	}
	if s.sk, err = s.owner.ExportSecretKey(); err != nil {
		return nil, err
	}
	s.devLo, s.devHi = seeds(rng)
	if s.device, err = abcfhe.NewEncryptor(s.pk, s.devLo, s.devHi); err != nil {
		return nil, err
	}
	if s.server, err = abcfhe.NewServer(abcfhe.PN16); err != nil {
		return nil, err
	}
	for i := 0; i < clientMessages; i++ {
		s.msgs = append(s.msgs, randomMessage(rng, s.device.Slots()))
	}
	return s, nil
}

func (s *clientSetup) Close() {
	s.owner.Close()
	s.device.Close()
	s.server.Close()
}

// reply is the untimed server step: parse the upload, drop it to the
// download level, serialize.
func (s *clientSetup) reply(up []byte) ([]byte, error) {
	ct, err := s.server.DeserializeCiphertext(up)
	if err != nil {
		return nil, err
	}
	if ct, err = s.server.DropLevel(ct, clientReplyAt); err != nil {
		return nil, err
	}
	return s.server.SerializeCiphertext(ct)
}

// roundTrip uploads msg and downloads it back through the public roles,
// timing the upload and the download apart.
func (s *clientSetup) roundTrip(msg, buf []complex128) (up, down []byte, got []complex128, tUp, tDown float64, err error) {
	tUp = timed(func() {
		var ct *abcfhe.Ciphertext
		if ct, err = s.device.EncodeEncrypt(msg); err == nil {
			up, err = s.device.SerializeCiphertext(ct)
		}
	})
	if err != nil {
		return nil, nil, nil, 0, 0, fmt.Errorf("upload: %w", err)
	}
	if down, err = s.reply(up); err != nil {
		return nil, nil, nil, 0, 0, fmt.Errorf("server reply: %w", err)
	}
	tDown = timed(func() {
		var ct *abcfhe.Ciphertext
		if ct, err = s.owner.DeserializeCiphertext(down); err == nil {
			got, err = s.owner.DecryptDecodeInto(ct, buf)
		}
	})
	if err != nil {
		return nil, nil, nil, 0, 0, fmt.Errorf("download: %w", err)
	}
	return up, down, got, tUp, tDown, nil
}

func runClient(r *run) error {
	s, err := setUp(r, setupRepeats, func() (*clientSetup, error) { return newClientSetup(r.opts.seed) })
	if err != nil {
		return err
	}
	defer s.Close()

	upWire, err := s.device.CiphertextWireBytes(s.device.MaxLevel())
	if err != nil {
		return err
	}
	downWire, err := s.device.CiphertextWireBytes(clientReplyAt)
	if err != nil {
		return err
	}
	acc := abcfhe.NewAccelerator()
	r.record["accelerator_model_ms"] = map[string]float64{
		"encode_encrypt": acc.EncodeEncryptMS(), "decode_decrypt": acc.DecodeDecryptMS(),
	}

	// One untimed round trip fills the scratch pools before the window.
	buf := make([]complex128, s.device.Slots())
	if _, _, _, _, _, err := s.roundTrip(s.msgs[0], buf); err != nil {
		return err
	}

	// Untraced loop: the end-to-end numbers.
	var ups, downs, trips []float64
	var outputs [][]byte
	var upHashes [][32]byte
	deadline := r.deadline()
	for i := 0; i < clientDigestOps || time.Now().Before(deadline); i++ {
		msg := s.msgs[i%len(s.msgs)]
		up, down, got, tUp, tDown, err := s.roundTrip(msg, buf)
		if err != nil {
			r.op(err.Error())
			continue
		}
		r.op(checkClient(msg, got))
		ups, downs, trips = append(ups, tUp), append(downs, tDown), append(trips, tUp+tDown)
		if i < clientDigestOps {
			outputs = append(outputs, up, down)
			upHashes = append(upHashes, sha256.Sum256(up))
		}
	}
	r.setDigest(outputs)
	if len(outputs) > 0 {
		r.gate("upload_wire_bytes", int64(len(outputs[0])), int64(upWire))
		r.gate("download_wire_bytes", int64(len(outputs[1])), int64(downWire))
	}
	upP50, _ := r.latency("upload", ups)
	downP50, _ := r.latency("download", downs)
	tripP50, tripTail := r.latency("round_trip", trips)
	r.metrics["p50_ms"], r.metrics["tail_ms"] = tripP50, tripTail
	r.metrics["ops_per_s"] = 1000 / mean(trips)
	if !r.opts.trace {
		return nil
	}

	r.metrics["client.upload_ms"], r.metrics["client.download_ms"] = upP50, downP50
	return traceClient(r, s, upHashes, tripP50, upP50, downP50)
}

// checkClient gates one round trip: the download must be within
// tolerance of the message it carries.
func checkClient(msg, got []complex128) string {
	if e := worstErr(msg, got); !(e <= clientTol) {
		return fmt.Sprintf("download worst-slot error %.3g above %g", e, clientTol)
	}
	return ""
}

// traceClient repeats the round trip as calls into the layers the public
// roles compose, timing each from here: ckks (encoder, encryptor,
// decryptor, wire format) as the top-level parts, and fftfp, ring and rns
// underneath them as attribution probes on the same inputs.
func traceClient(r *run, s *clientSetup, upHashes [][32]byte, tripP50, upP50, downP50 float64) error {
	spec, _, err := ckks.ReadKeySpec(s.pk)
	if err != nil {
		return err
	}
	params, err := spec.Build()
	if err != nil {
		return err
	}
	defer params.Close()
	pk, err := params.UnmarshalPublicKey(s.pk)
	if err != nil {
		return err
	}
	sk, _, err := params.UnmarshalSecretKey(s.sk)
	if err != nil {
		return err
	}
	encoder := ckks.NewEncoder(params)
	enc := ckks.NewEncryptor(params, pk, prng.SeedFromUint64s(s.devLo, s.devHi))
	dec := ckks.NewDecryptor(params, sk)
	emb, ctx := params.Embedder(), params.FFTCtx()
	top := params.Ring()
	basis := params.RingAt(clientReplyAt).Basis
	upWire := params.CiphertextWireBytes(params.MaxLevel())
	n := params.N()

	// The public path's warm-up drew encryption call 1; draw it here too so
	// traced upload i uses the same randomness as untraced upload i.
	warm := encoder.Encode(s.msgs[0])
	enc.Encrypt(warm)
	params.PutPlaintext(warm)

	t := newTracer()
	var tracedTrips []float64
	buf := make([]complex128, params.Slots())
	vals := make([]fftfp.Complex, params.Slots())
	coeffs := make([]float64, n)
	slots := make([]fftfp.Complex, params.Slots())
	limbs := make([]uint64, clientReplyAt)
	scratch := make([]uint64, basis.CombineScratchLen())
	deadline := r.deadline()
	for i := 0; i < 1 || time.Now().Before(deadline); i++ {
		msg := s.msgs[i%len(s.msgs)]
		var up []byte
		tUp := timed(func() {
			var pt *ckks.Plaintext
			var ct *ckks.Ciphertext
			t.span(i, "ckks.encode", func() { pt = encoder.Encode(msg) })
			t.span(i, "ckks.encrypt", func() { ct = enc.Encrypt(pt) })
			params.PutPlaintext(pt)
			t.span(i, "ckks.marshal", func() { up, err = params.MarshalCiphertext(ct, true) })
		})
		if err != nil {
			r.op("traced upload: " + err.Error())
			continue
		}
		if i < len(upHashes) && sha256.Sum256(up) != upHashes[i] {
			r.fail(fmt.Sprintf("traced upload %d differs from the public API's bytes", i))
		}

		for j, z := range msg {
			vals[j] = fftfp.Complex{Re: real(z), Im: imag(z)}
		}
		t.span(i, "fftfp.encode", func() { emb.EncodeToCoeffs(vals, ctx) })
		p, e0, e1 := top.GetPolyUninit(), top.GetPolyUninit(), top.GetPolyUninit()
		t.span(i, "ring.sample", func() {
			top.TernaryPoly(prng.NewSource(enc0Seed, uint64(3*i)), p)
			top.GaussianPoly(prng.NewSource(enc0Seed, uint64(3*i+1)), e0)
			top.GaussianPoly(prng.NewSource(enc0Seed, uint64(3*i+2)), e1)
		})
		t.span(i, "ring.ntt", func() { top.NTT(p) })
		t.span(i, "ring.intt", func() { top.INTT(p) })
		top.PutPoly(p)
		top.PutPoly(e0)
		top.PutPoly(e1)

		down, err := s.reply(up)
		if err != nil {
			r.op("server reply: " + err.Error())
			continue
		}
		var got []complex128
		var pt *ckks.Plaintext
		tDown := timed(func() {
			var ct *ckks.Ciphertext
			t.span(i, "ckks.unmarshal", func() { ct, err = params.UnmarshalCiphertext(down) })
			if err != nil {
				return
			}
			t.span(i, "ckks.decrypt", func() { pt = dec.Decrypt(ct) })
			t.span(i, "ckks.decode", func() { got = encoder.DecodeInto(pt, buf) })
		})
		if err != nil {
			r.op("traced download: " + err.Error())
			continue
		}
		t.span(i, "rns.combine", func() {
			for j := 0; j < n; j++ {
				for l := range limbs {
					limbs[l] = pt.Value.Coeffs[l][j]
				}
				coeffs[j] = basis.CombineCenteredFloatScratch(limbs, pt.Scale, scratch)
			}
		})
		t.span(i, "fftfp.decode", func() { emb.DecodeFromCoeffsInto(coeffs, slots, ctx) })
		params.PutPlaintext(pt)
		r.op(checkClient(msg, got))
		tracedTrips = append(tracedTrips, tUp+tDown)
	}

	upParts := []string{"ckks.encode", "ckks.encrypt", "ckks.marshal"}
	downParts := []string{"ckks.unmarshal", "ckks.decrypt", "ckks.decode"}
	for _, name := range append(append(upParts, downParts...),
		"fftfp.encode", "ring.sample", "ring.ntt", "ring.intt", "rns.combine", "fftfp.decode") {
		r.metrics[name+"_ms"] = t.p50(name)
	}
	r.metrics["ckks.ct_wire_bytes"] = float64(upWire)
	upRes := t.printParts("client.upload", upP50, upParts, "ms")
	downRes := t.printParts("client.download", downP50, downParts, "ms")
	r.metrics["client.residual_ms"] = upRes + downRes
	r.metrics["trace.overhead_ms"] = median(tracedTrips) - tripP50
	fmt.Printf("trace overhead: round trip traced %.3f ms - untraced %.3f ms = %.3f ms\n",
		median(tracedTrips), tripP50, r.metrics["trace.overhead_ms"])
	return nil
}

// enc0Seed seeds the sampler probes; their cost does not depend on it.
var enc0Seed = prng.SeedFromUint64s(0x5A, 0x3B)
