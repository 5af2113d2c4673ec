package ckks

// Key-switch pipeline oracles: the fused hybrid pipeline (production)
// must match the staged pipeline (hoist → apply → ModDown, one dispatch
// per stage) byte for byte. The staged hoist lives here, as the
// reference the fused one is checked against.

import (
	"testing"

	"repro/internal/prng"
	"repro/internal/ring"
)

// hoistHybrid decomposes c (coefficient domain, `level` limbs) stage by
// stage: per group, one ModUp to the extended QP basis (rns.Extender fast
// base conversion, chunked across the lanes) and one NTT sweep.
func (p *Parameters) hoistHybrid(c *ring.Poly, level int) *hoistedDigits {
	rqp := p.RingQPAt(level)
	beta := p.DnumAt(level)
	h := &hoistedDigits{level: level, dig: make([]*ring.Poly, beta)}
	for j := 0; j < beta; j++ {
		lo, hi := p.groupRange(level, j)
		d := rqp.GetPolyUninit() // the extension writes every word
		rqp.ModUpInto(p.groupExtender(level, j), c.Coeffs[lo:hi], d)
		rqp.NTT(d)
		h.dig[j] = d
	}
	return h
}

// stagedSwitch runs the staged pipeline (hoist → apply → closing INTTs).
func stagedSwitch(p *Parameters, c *ring.Poly, level int, ksk *SwitchingKey, perm []int32) (*ring.Poly, *ring.Poly) {
	rl := p.RingAt(level)
	out0 := rl.NewPoly()
	out1 := rl.NewPoly()
	out0.IsNTT, out1.IsNTT = true, true
	h := p.hoistHybrid(c, level)
	p.applyHybridInto(h, ksk, perm, out0, out1)
	p.releaseDigits(h)
	rl.INTT(out0)
	rl.INTT(out1)
	return out0, out1
}

// TestFusedMatchesStaged: switchHybridFused equals the staged pipeline
// byte for byte — full depth and a level with a short last group, with
// and without a hoisting permutation, against a depth-capped key (the
// km key-row mapping) and a full-depth one.
func TestFusedMatchesStaged(t *testing.T) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	rlkFull := kg.GenRelinearizationKeyHybridAt(p.MaxLevel())
	perm := p.Ring().GaloisPermNTT(p.GaloisElement(1))

	for _, level := range []int{p.MaxLevel(), 3} { // 3 % α=2 ≠ 0: short group
		rl := p.RingAt(level)
		c := rl.NewPoly()
		rl.UniformPoly(prng.NewSource(testSeed(), 9000+uint64(level)), c)
		for _, tc := range []struct {
			name string
			perm []int32
		}{{"identity", nil}, {"permuted", perm}} {
			s0, s1 := stagedSwitch(p, c, level, rlkFull.K, tc.perm)
			f0 := rl.NewPoly()
			f1 := rl.NewPoly()
			f0.IsNTT, f1.IsNTT = true, true
			p.switchHybridFused(c, level, rlkFull.K, tc.perm, f0, f1, true)
			if !rl.Equal(s0, f0) || !rl.Equal(s1, f1) {
				t.Fatalf("level %d %s: fused switch diverges from staged", level, tc.name)
			}
			if f0.IsNTT || f1.IsNTT {
				t.Fatalf("level %d: closeNTT must land in the coefficient domain", level)
			}
		}
	}
}

// TestFusedHoistMatchesStaged: the two-dispatch hoist produces the same
// digit polynomials as the staged per-group hoist.
func TestFusedHoistMatchesStaged(t *testing.T) {
	p := testParams
	for _, level := range []int{p.MaxLevel(), 3} {
		rl := p.RingAt(level)
		c := rl.NewPoly()
		rl.UniformPoly(prng.NewSource(testSeed(), 9100+uint64(level)), c)
		hs := p.hoistHybrid(c, level)
		hf := p.hoistHybridFused(c, level)
		rqp := p.RingQPAt(level)
		for j := range hs.dig {
			if !rqp.Equal(hs.dig[j], hf.dig[j]) {
				t.Fatalf("level %d group %d: fused hoist diverges", level, j)
			}
		}
		p.releaseDigits(hs)
		p.releaseDigits(hf)
	}
}

// TestFusedSwitchAllocs: the fused pipeline's steady state draws all
// polynomial scratch from the pools — per call it may allocate only the
// small orchestration slices and the per-dispatch job headers, never a
// digit buffer (β·(L+k)·N words) or accumulator storage.
func TestFusedSwitchAllocs(t *testing.T) {
	p := TestParams.MustBuild()
	kg := NewKeyGenerator(p, testSeed())
	rlk := kg.GenRelinearizationKeyHybridAt(p.MaxLevel())
	level := p.MaxLevel()
	rl := p.RingAt(level)
	c := rl.NewPoly()
	rl.UniformPoly(prng.NewSource(testSeed(), 9200), c)
	out0 := rl.NewPoly()
	out1 := rl.NewPoly()

	run := func() {
		out0.IsNTT, out1.IsNTT = true, true
		p.switchHybridFused(c, level, rlk.K, nil, out0, out1, true)
	}
	for i := 0; i < 3; i++ {
		run() // warm the pools
	}
	// 5 dispatches × (job + closure), the β-sized bookkeeping slices, and
	// one slab-header box per pooled row returned (~77 small objects at
	// the test geometry). The budget is about what must NOT appear: any
	// O(N) storage — a digit buffer or accumulator allocation would blow
	// past it immediately at real ring degrees.
	if allocs := testing.AllocsPerRun(10, run); allocs > 96 {
		t.Fatalf("fused switch allocates %.0f objects/op, budget 96", allocs)
	}
}

// FuzzFusedHybridSwitch: for arbitrary inputs and levels, fused and
// staged hybrid switching agree byte for byte.
func FuzzFusedHybridSwitch(f *testing.F) {
	p := testParams
	kg := NewKeyGenerator(p, testSeed())
	rlk := kg.GenRelinearizationKeyHybridAt(p.MaxLevel())
	perm := p.Ring().GaloisPermNTT(p.GaloisElement(2))
	f.Add(uint64(1), uint64(2), uint8(4), false)
	f.Add(uint64(3), uint64(4), uint8(3), true)
	f.Fuzz(func(t *testing.T, seedLo, seedHi uint64, levelByte uint8, permute bool) {
		level := 1 + int(levelByte)%p.MaxLevel()
		rl := p.RingAt(level)
		c := rl.NewPoly()
		rl.UniformPoly(prng.NewSource(prng.SeedFromUint64s(seedLo, seedHi), 11), c)
		var pm []int32
		if permute {
			pm = perm
		}
		s0, s1 := stagedSwitch(p, c, level, rlk.K, pm)
		f0 := rl.NewPoly()
		f1 := rl.NewPoly()
		f0.IsNTT, f1.IsNTT = true, true
		p.switchHybridFused(c, level, rlk.K, pm, f0, f1, true)
		if !rl.Equal(s0, f0) || !rl.Equal(s1, f1) {
			t.Fatalf("level %d permute=%v: fused switch diverges from staged", level, permute)
		}
	})
}
