package abcfhe

// Public-surface property test of the lane-determinism contract: every
// operation of the role-separated API produces byte-identical ciphertexts
// at any worker count. Worker counts are execution strategy only — the
// wire bytes are part of the protocol and must not depend on them.

import (
	"bytes"
	"fmt"
	"testing"
)

// workerRun drives the full three-party pipeline with `workers` lanes and
// returns the serialized bytes of every intermediate ciphertext.
func workerRun(t *testing.T, workers int) map[string][]byte {
	t.Helper()
	opts := []Option{WithWorkers(workers)}
	owner, device, server := threeParties(t, Test, 0xBACC, 0xE57, opts...)
	defer owner.Close()
	defer device.Close()
	defer server.Close()

	evkBytes, err := owner.ExportEvaluationKeys(EvalKeyConfig{
		Rotations: []int{1, 2},
		Conjugate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	evk, err := server.ImportEvaluationKeys(evkBytes)
	if err != nil {
		t.Fatal(err)
	}

	msgs := testMsgs(device.Slots(), 2)
	ct1, err := device.EncodeEncrypt(msgs[0])
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := device.EncodeEncrypt(msgs[1])
	if err != nil {
		t.Fatal(err)
	}

	out := map[string][]byte{}
	record := func(name string, ct *Ciphertext, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s (workers=%d): %v", name, workers, err)
		}
		blob, err := server.SerializeCiphertext(ct)
		if err != nil {
			t.Fatalf("serialize %s: %v", name, err)
		}
		out[name] = blob
	}
	record("encrypt", ct1, nil)

	mul, err := server.Mul(ct1, ct2, evk)
	record("mul", mul, err)
	rot, err := server.Rotate(ct1, 2, evk)
	record("rotate", rot, err)
	conj, err := server.Conjugate(ct1, evk)
	record("conjugate", conj, err)
	isum, err := server.InnerSum(ct1, 4, evk)
	record("innersum", isum, err)

	// Decode determinism rides the same bytes: same ciphertext bytes in,
	// identical float64s out (pure deterministic arithmetic).
	dec, err := owner.DecryptDecode(ct1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, v := range dec[:8] {
		fmt.Fprintf(&buf, "%x/%x;", real(v), imag(v))
	}
	out["decode"] = buf.Bytes()
	return out
}

// TestBackendWorkerInvariance sweeps worker counts 1, 2 and 8; every
// configuration must produce the same bytes as the single-worker
// reference.
func TestBackendWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps 3 full pipelines")
	}
	ref := workerRun(t, 1)
	for _, workers := range []int{2, 8} {
		got := workerRun(t, workers)
		for name, want := range ref {
			if !bytes.Equal(got[name], want) {
				t.Fatalf("%s: bytes diverge under workers=%d", name, workers)
			}
		}
	}
}
