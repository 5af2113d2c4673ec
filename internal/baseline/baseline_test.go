package baseline

import (
	"math"
	"testing"

	"repro/internal/ckks"
	"repro/internal/sched"
)

func TestAnchoredSetRatios(t *testing.T) {
	pts := AnchoredSet(0.26, 0.03)
	byKey := map[string]Point{}
	for _, p := range pts {
		byKey[p.System+"/"+p.Op] = p
	}
	abc := byKey["ABC-FHE (this work)/enc"]
	cpu := byKey["CPU (i7-12700, Lattigo, 1 core)/enc"]
	if r := cpu.LatencyMS / abc.LatencyMS; math.Abs(r-PaperSpeedupEncVsCPU) > 1e-9 {
		t.Fatalf("enc CPU ratio %v", r)
	}
	sota := byKey["SOTA accel [34]/[22] (normalized)/dec"]
	abcDec := byKey["ABC-FHE (this work)/dec"]
	if r := sota.LatencyMS / abcDec.LatencyMS; math.Abs(r-PaperSpeedupDecVsSOTA) > 1e-9 {
		t.Fatalf("dec SOTA ratio %v", r)
	}
	for _, p := range pts {
		if p.Provenance == "" {
			t.Fatalf("point %q lacks provenance", p.System)
		}
	}
}

func TestNormalizations(t *testing.T) {
	// Frequency normalization: a 300 MHz design's 10 ms becomes 5 ms at 600.
	if got := NormalizeFrequency(10, 300, 600); got != 5 {
		t.Fatalf("freq normalization: %v", got)
	}
	// Op-proportion scaling: a design that ran 1/4 of the target ops gets 4x.
	if got := ScaleByOpProportion(10, 1, 4); got != 40 {
		t.Fatalf("op scaling: %v", got)
	}
	if Speedup(100, 4) != 25 {
		t.Fatal("speedup")
	}
}

func TestFig1Shares(t *testing.T) {
	rows := Fig1(0.26, 0.03, 1000)
	if len(rows) != 3 {
		t.Fatal("three bars expected")
	}
	// By construction the SOTA-client bar must reproduce the published
	// 69.4% client share.
	sota := rows[1]
	if math.Abs(sota.ClientShare-PaperClientShareSOTA) > 1e-9 {
		t.Fatalf("SOTA client share %.4f, want %.4f", sota.ClientShare, PaperClientShareSOTA)
	}
	// CPU client dominates even more; ABC-FHE flips the balance. Note the
	// paper's own printed marks (99.9% and 12.8%) are not derivable from
	// its speed-up ratios alone (the ratio-implied maximum for the CPU bar
	// is ≈92%); we assert the ratio-consistent ordering and record the
	// paper marks in EXPERIMENTS.md.
	if rows[0].ClientShare < 0.90 {
		t.Fatalf("CPU client share %.4f — should dominate (paper mark: 99.9%%)", rows[0].ClientShare)
	}
	if rows[2].ClientShare > 0.15 {
		t.Fatalf("ABC-FHE client share %.4f — must flip the bottleneck (paper mark: 12.8%%)", rows[2].ClientShare)
	}
}

func TestMeasureCPUSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("timing run")
	}
	encMS, decMS, err := MeasureCPU(ckks.TestParams, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if encMS < 0 || decMS < 0 {
		t.Fatal("negative latency")
	}
	// Encode+encrypt at 4 limbs costs more than decrypt+decode at 2 — stated
	// on operation counts at the measured geometry, not on wall clock
	// (which skews under parallel load; the wall-clock pair is measured by
	// the end-to-end benchmark's client.upload_ms and client.download_ms).
	spec := ckks.TestParams
	enc := sched.EncodeEncryptOps(spec.LogN, spec.Limbs)
	dec := sched.DecodeDecryptOps(spec.LogN, 2)
	total := func(o sched.OpCounts) float64 { return o.FFTOps + o.NTTOps + o.ElementWise + o.Others }
	if dec.TransformPasses >= enc.TransformPasses || total(dec) >= total(enc) {
		t.Fatalf("decode (%d passes, %.0f ops) not cheaper than encode (%d passes, %.0f ops)",
			dec.TransformPasses, total(dec), enc.TransformPasses, total(enc))
	}
}

func TestPriorWorks(t *testing.T) {
	ws := PriorWorks()
	if len(ws) != 4 {
		t.Fatalf("expected 4 prior systems, got %d", len(ws))
	}
	// The paper's motivating observation: none support bootstrappable
	// parameters, none stream.
	if SupportsBootstrappableCount() != 0 {
		t.Fatal("no prior design reaches bootstrappable parameters")
	}
	for _, w := range ws {
		if w.MaxLogN >= 14 {
			t.Fatalf("%s: logN %d contradicts the non-bootstrappable claim", w.Name, w.MaxLogN)
		}
		if w.Streaming {
			t.Fatalf("%s: prior designs are non-streaming per the paper", w.Name)
		}
	}
}

func TestNormalizationFor(t *testing.T) {
	w := PriorWorks()[2] // ALOHA-HE
	// A 300 MHz design with 1/4 of the target ops: multiplier = 0.5 * 4 = 2.
	mult, formula := NormalizationFor(w, 4, 1, 300)
	if mult != 2 {
		t.Fatalf("multiplier %v, want 2", mult)
	}
	if formula == "" {
		t.Fatal("formula must describe the adjustment")
	}
}
