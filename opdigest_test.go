package abcfhe

// Pinned output digests of the public evaluation surface: every server op
// at the Test preset, from fixed owner and device seeds, must serialize to
// the same bytes across commits. The kernels and the key-switch pipeline
// are free to change how they compute, never what — this is the
// cross-commit half of the byte-identity contract that
// TestEvalKeyBlobBytesPinned states for key blobs.

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"sort"
	"testing"
)

// opDigests runs every public server op once on fixed inputs and returns
// the SHA-256 of each op's serialized output(s).
func opDigests(t *testing.T) map[string]string {
	t.Helper()
	owner, device, server := threeParties(t, Test, 0x0D16, 0x0D17)
	defer owner.Close()
	defer device.Close()
	defer server.Close()
	slots := server.Slots()

	rng := rand.New(rand.NewSource(7))
	diags := map[int][]complex128{}
	for _, d := range []int{0, 1, 2, 5, 9} {
		v := make([]complex128, slots)
		for r := range v {
			v[r] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
		}
		diags[d] = v
	}
	lt, err := server.NewLinearTransform(diags, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	dft, err := server.NewHomomorphicDFT(HomomorphicDFTConfig{StartLevel: 4, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	pe, err := server.NewPolyEval([]complex128{0.25, complex(0.5, -0.125)}, -1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	em, err := server.NewEvalMod(EvalModConfig{Degree: 1, Range: 8})
	if err != nil {
		t.Fatal(err)
	}
	steps := []int{1, 2, 3}
	steps = append(steps, InnerSumRotations(8)...)
	steps = append(steps, lt.Rotations()...)
	steps = append(steps, dft.Rotations()...)
	evkBytes, err := owner.ExportEvaluationKeys(EvalKeyConfig{Rotations: steps, Conjugate: true})
	if err != nil {
		t.Fatal(err)
	}
	evk, err := server.ImportEvaluationKeys(evkBytes)
	if err != nil {
		t.Fatal(err)
	}
	msgs := testMsgs(slots, 2)
	ct1, err := device.EncodeEncrypt(msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := device.EncodeEncrypt(msgs[1])
	if err != nil {
		t.Fatal(err)
	}

	out := map[string]string{}
	record := func(name string, err error, cts ...*Ciphertext) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		h := sha256.New()
		for _, ct := range cts {
			blob, err := server.SerializeCiphertext(ct)
			if err != nil {
				t.Fatalf("serialize %s: %v", name, err)
			}
			h.Write(blob)
		}
		out[name] = hex.EncodeToString(h.Sum(nil))
	}

	prod, err := server.Mul(ct1, ct2, evk)
	if err == nil {
		prod, err = server.Rescale(prod)
	}
	record("mulrelin+rescale", err, prod)
	rot, err := server.Rotate(ct1, 3, evk)
	record("rotate", err, rot)
	many, err := server.RotateMany(ct1, []int{1, 2, 3}, evk)
	record("rotatehoisted", err, many...)
	conj, err := server.Conjugate(ct1, evk)
	record("conjugate", err, conj)
	isum, err := server.InnerSum(ct1, 8, evk)
	record("innersum", err, isum)
	ltOut, err := server.LinearTransform(ct1, lt, evk)
	record("lineartransform", err, ltOut)
	re, im, err := server.CoeffsToSlots(ct1, dft, evk)
	if err != nil {
		t.Fatalf("c2s: %v", err)
	}
	back, err := server.SlotsToCoeffs(re, im, dft, evk)
	record("c2s→s2c", err, re, im, back)
	pOut, err := server.EvalPoly(ct1, pe, evk)
	record("evalpoly", err, pOut)
	mOut, err := server.EvalMod(ct1, em, evk)
	record("evalmod", err, mOut)
	return out
}

// TestPublicOpDigestsPinned fixes the output bytes of every public server
// op. The digests were captured on the commit before the portable kernels
// and the staged key switch left production, and agreed there under both
// of its kernel paths.
func TestPublicOpDigestsPinned(t *testing.T) {
	want := map[string]string{
		"mulrelin+rescale": "2b9a770aae2369d0f7044b89e2cde2faa21f4884f86c54c778067a11a6ff5ba1",
		"rotate":           "4fd7a93bfbb8751afc11a20a106a43e54029aa0cc1f2cd806e1f4909ea182ccc",
		"rotatehoisted":    "9df99ee85c456d11f8d436c67b210a288e6bfddf8892f331b738257d1cce4477",
		"conjugate":        "069e5099a6fb2c052edb4c331e3ada22f5222f59c23a7333608f857296f0daa9",
		"innersum":         "b35c0982f5326b645dc5f32b967a245227b08b3d11da7794aab5e4048cfddc4f",
		"lineartransform":  "0f6e6d1b2d57301196053a43806730fa94da6c5aa602a2d4f45257cb03ca7be9",
		"c2s→s2c":          "0a09cda3d13b728c5f4866879b1eebc4d99b11fde496f403852701e2d750848c",
		"evalpoly":         "10da14479972914d81bc6688400bf68a6e21dfa467fb5c211a84754939942d33",
		"evalmod":          "56f6f08e29182ae5980b35c42f32018c6225370be8a1de3e02177e1a0e9c3f7f",
	}
	got := opDigests(t)
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: digest %s, want %s", name, got[name], want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("ran %d ops, pinned %d", len(got), len(want))
	}
}
