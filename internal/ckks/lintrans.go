package ckks

import (
	"math/bits"
	"sort"

	"repro/internal/fftfp"
	"repro/internal/ring"
)

// Homomorphic linear transforms: plaintext matrix × encrypted vector by
// diagonal encoding, evaluated with blocked baby-step/giant-step (BSGS)
// over the hoisted key-switch path.
//
//	M·v = Σ_d diag_d(M) ⊙ rot_d(v)
//
// splits each diagonal index d = g + i (g a multiple of the block size N1,
// i ∈ [0, N1)) and regroups:
//
//	M·v = Σ_g rot_g( Σ_i rot_{−g}(diag_{g+i}) ⊙ rot_i(v) )
//
// so the ciphertext is rotated only |babies| + |giants| times instead of
// once per diagonal — and the BSGS evaluation leans on hoisting twice:
// every baby rotation shares ONE decomposition of the input's c1
// (the expensive half of a key switch), and each giant step pays one
// decomposition of its inner accumulator. The pre-rotations rot_{−g} of
// the diagonals are free: they happen at encode time.
//
// The instantiation that matters for bootstrapping is the homomorphic
// DFT (CoeffsToSlots/SlotsToCoeffs): the special FFT factored into
// `levels` grouped butterfly products (internal/fftfp/dftmat.go), one
// LinearTransform per group.

// LinearTransform is a plaintext matrix pre-encoded in BSGS diagonal form
// at a fixed level. Diagonals are stored NTT-domain, pre-rotated by their
// giant step, and encoded at scale 2^(Rescales·LimbBits) so the built-in
// rescales return the output to (approximately, and exactly tracked by
// the float Scale) the input's scale. Build with Encoder.NewLinearTransform;
// evaluate with Evaluator.LinearTransform. Immutable after construction
// and safe for concurrent evaluation.
type LinearTransform struct {
	Level    int     // input (and encoding) level; output lands Rescales below
	N1       int     // baby-step block size
	PtScale  float64 // scale the diagonals are encoded at
	Rescales int     // rescales folded into evaluation

	slots      int
	groups     map[int][]ltTerm // giant step → terms, term order fixed at build
	babySteps  []int            // ascending, 0 included when used
	giantSteps []int            // ascending, 0 included when used
}

// ltTerm is one diagonal's contribution: the pre-rotated NTT-domain
// plaintext polynomial and the baby step it multiplies.
type ltTerm struct {
	baby int
	poly *ring.Poly
}

// BabySteps returns the baby rotation steps the evaluation uses
// (ascending; may include 0).
func (lt *LinearTransform) BabySteps() []int { return append([]int(nil), lt.babySteps...) }

// GiantSteps returns the giant rotation steps (ascending; may include 0).
func (lt *LinearTransform) GiantSteps() []int { return append([]int(nil), lt.giantSteps...) }

// Rotations returns the nonzero rotation steps the evaluation needs keys
// for: the union of baby and giant steps, ascending.
func (lt *LinearTransform) Rotations() []int {
	set := map[int]bool{}
	for _, s := range lt.babySteps {
		set[s] = true
	}
	for _, s := range lt.giantSteps {
		set[s] = true
	}
	delete(set, 0)
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// BSGSSteps splits normalized diagonal indices by block size n1 and
// returns the distinct baby steps (d mod n1) and giant steps (d − d mod n1),
// both ascending. Shared between key owners (choosing what to export) and
// the transform builder, so the two derive the same rotation set by
// construction.
func BSGSSteps(slots int, diags []int, n1 int) (babies, giants []int) {
	bset, gset := map[int]bool{}, map[int]bool{}
	for _, d := range diags {
		d = ((d % slots) + slots) % slots
		i := d % n1
		bset[i] = true
		gset[d-i] = true
	}
	for s := range bset {
		babies = append(babies, s)
	}
	for s := range gset {
		giants = append(giants, s)
	}
	sort.Ints(babies)
	sort.Ints(giants)
	return babies, giants
}

// OptimalN1 scans power-of-two block sizes and returns the one minimizing
// |babies| + |giants| for the given diagonal support. Giant steps are the
// more expensive side (each pays a fresh decomposition), so ties
// break toward the larger block (fewer giants).
func OptimalN1(slots int, diags []int) int {
	best, bestCost := 1, int(^uint(0)>>1)
	for n1 := 1; n1 <= slots; n1 <<= 1 {
		b, g := BSGSSteps(slots, diags, n1)
		if cost := len(b) + len(g); cost <= bestCost {
			best, bestCost = n1, cost
		}
	}
	return best
}

// RescalesPerLevel is the limb cost of one multiplicative level on this
// parameter set: ⌈LogScale/LimbBits⌉ (2 on the double-scale presets).
func (p *Parameters) RescalesPerLevel() int {
	return (p.LogScale + p.LimbBits - 1) / p.LimbBits
}

// NewLinearTransform pre-encodes a plaintext matrix, given as its nonzero
// diagonals (diag d holds M[r][(r+d) mod slots] at position r; indices are
// normalized cyclically, vectors shorter than Slots() are zero-padded),
// for evaluation on ciphertexts at `level`. n1 ≤ 0 selects the
// cost-optimal power-of-two block size. All-zero diagonals are dropped.
// The transform consumes RescalesPerLevel() limbs, so level must leave at
// least one; at least one nonzero diagonal is required.
func (enc *Encoder) NewLinearTransform(diags map[int][]complex128, level, n1 int) *LinearTransform {
	p := enc.params
	slots := p.Slots()
	rescales := p.RescalesPerLevel()
	// Floor of 2·rescales: the pre-rescale product lives at scale
	// Δ·2^(rescales·LimbBits) ≤ 2^(2·rescales·LimbBits), which must fit
	// under the level's modulus — one multiplicative level of input
	// headroom on top of the rescales themselves.
	if level < 2*rescales || level > p.MaxLevel() {
		panic("ckks: linear-transform level out of range")
	}

	// Normalize, merge aliased indices, and drop zero diagonals.
	norm := map[int][]complex128{}
	for d, v := range diags {
		if len(v) > slots {
			panic("ckks: diagonal longer than slot count")
		}
		nz := false
		for _, z := range v {
			if z != 0 {
				nz = true
				break
			}
		}
		if !nz {
			continue
		}
		d = ((d % slots) + slots) % slots
		if prev, ok := norm[d]; ok {
			merged := make([]complex128, slots)
			copy(merged, prev)
			for i, z := range v {
				merged[i] += z
			}
			norm[d] = merged
			continue
		}
		norm[d] = v
	}
	if len(norm) == 0 {
		panic("ckks: linear transform has no nonzero diagonals")
	}
	idx := make([]int, 0, len(norm))
	for d := range norm {
		idx = append(idx, d)
	}
	sort.Ints(idx)
	if n1 <= 0 {
		n1 = OptimalN1(slots, idx)
	}

	babies, giants := BSGSSteps(slots, idx, n1)
	lt := &LinearTransform{
		Level: level, N1: n1, Rescales: rescales, slots: slots,
		groups: map[int][]ltTerm{}, babySteps: babies, giantSteps: giants,
	}
	logScale := rescales * p.LimbBits
	lt.PtScale = 1.0
	for i := 0; i < logScale; i++ {
		lt.PtScale *= 2
	}

	rl := p.RingAt(level)
	rot := make([]complex128, slots)
	for _, d := range idx {
		v := norm[d]
		i := d % n1
		g := d - i
		// Pre-rotate by −g: stored[r] = diag_d[(r−g) mod slots].
		for r := range rot {
			rot[r] = 0
		}
		for r, z := range v {
			rot[(r+g)%slots] = z
		}
		pt := enc.EncodeAtLevelScale(rot, level, logScale)
		rl.NTT(pt.Value)
		lt.groups[g] = append(lt.groups[g], ltTerm{baby: i, poly: pt.Value})
	}
	return lt
}

// LinearTransform evaluates lt on ct (coefficient domain, at exactly
// lt.Level) using rotation keys from rot (keyed by normalized step; every
// step in lt.Rotations() must be present).
// The result lands lt.Rescales levels below at ≈ the input scale. Misuse
// panics; the public Server role validates and returns typed errors.
func (ev *Evaluator) LinearTransform(ct *Ciphertext, lt *LinearTransform, rot map[int]*RotationKey) *Ciphertext {
	if ct.Level != lt.Level {
		panic("ckks: ciphertext level does not match the transform's encoding level")
	}
	p := ev.params
	level := lt.Level
	rl := ev.ringAt(level)

	// NTT forms of the input pair — the baby-0 term and the σ(c0) source.
	c0n := rl.GetPolyCopy(ct.C0)
	c1n := rl.GetPolyCopy(ct.C1)
	rl.NTT(c0n)
	rl.NTT(c1n)

	// Baby rotations, all sharing one hoisted decomposition of ct.C1.
	type pair struct{ b0, b1 *ring.Poly }
	babies := make(map[int]pair, len(lt.babySteps))
	var h *hoistedDigits
	for _, i := range lt.babySteps {
		if i == 0 {
			babies[0] = pair{c0n, c1n}
			continue
		}
		rk := rot[i]
		if rk == nil {
			panic("ckks: missing baby-step rotation key")
		}
		if h == nil {
			h = p.hoistHybridFused(ct.C1, level)
		}
		b0, b1 := rl.GetPoly(), rl.GetPoly()
		b0.IsNTT, b1.IsNTT = true, true
		p.applyHybridInto(h, rk.K, rk.Perm, b0, b1)
		tmp := rl.GetPolyUninit() // PermuteNTT writes every index
		rl.PermuteNTT(c0n, rk.Perm, tmp)
		rl.Add(b0, tmp, b0)
		rl.PutPoly(tmp)
		babies[i] = pair{b0, b1}
	}
	if h != nil {
		p.releaseDigits(h)
	}

	// Giant steps: accumulate each block at the product scale, rotate the
	// block once, and fold into the result — rotations run before the
	// rescales on purpose (key-switch noise is additive at the current
	// scale, cheapest while the scale is still ct.Scale·PtScale).
	final0, final1 := rl.NewPoly(), rl.NewPoly() // returned — caller-owned
	final0.IsNTT, final1.IsNTT = true, true
	for _, g := range lt.giantSteps {
		terms := lt.groups[g]
		if g == 0 {
			for _, t := range terms {
				rl.MulCoeffsAdd(t.poly, babies[t.baby].b0, final0)
				rl.MulCoeffsAdd(t.poly, babies[t.baby].b1, final1)
			}
			continue
		}
		rk := rot[g]
		if rk == nil {
			panic("ckks: missing giant-step rotation key")
		}
		acc0, acc1 := rl.GetPoly(), rl.GetPoly()
		acc0.IsNTT, acc1.IsNTT = true, true
		for _, t := range terms {
			rl.MulCoeffsAdd(t.poly, babies[t.baby].b0, acc0)
			rl.MulCoeffsAdd(t.poly, babies[t.baby].b1, acc1)
		}
		// Rotate the block accumulator by g and fold into the result: the
		// switched half accumulates directly (applyHybridInto adds), σ_g of
		// the acc0 half is a pure NTT-domain gather.
		rl.INTT(acc1) // the decomposition reads the coefficient domain
		hg := p.hoistHybridFused(acc1, level)
		p.applyHybridInto(hg, rk.K, rk.Perm, final0, final1)
		p.releaseDigits(hg)
		tmp := rl.GetPolyUninit()
		rl.PermuteNTT(acc0, rk.Perm, tmp)
		rl.Add(final0, tmp, final0)
		rl.PutPoly(tmp)
		rl.PutPoly(acc0)
		rl.PutPoly(acc1)
	}
	for i, pr := range babies {
		if i != 0 {
			rl.PutPoly(pr.b0)
			rl.PutPoly(pr.b1)
		}
	}
	rl.PutPoly(c0n)
	rl.PutPoly(c1n)

	rl.INTT(final0)
	rl.INTT(final1)
	out := &Ciphertext{C0: final0, C1: final1, Level: level, Scale: ct.Scale * lt.PtScale}
	for r := 0; r < lt.Rescales; r++ {
		out = ev.Rescale(out)
	}
	return out
}

// MulByI multiplies every slot by the imaginary unit: a negacyclic
// monomial multiply by X^(N/2), whose decode places i in every slot
// (5^j ≡ 1 mod 4, so every evaluation point raises it to i). Pure
// O(N·L) coefficient movement — no keys, no noise growth, scale and
// level unchanged.
func (ev *Evaluator) MulByI(ct *Ciphertext) *Ciphertext {
	rl := ev.ringAt(ct.Level)
	out0, out1 := rl.NewPoly(), rl.NewPoly()
	rl.MulMonomial(ct.C0, ev.params.N()/2, out0)
	rl.MulMonomial(ct.C1, ev.params.N()/2, out1)
	return &Ciphertext{C0: out0, C1: out1, Level: ct.Level, Scale: ct.Scale}
}

// ---------------------------------------------------------------------
// Homomorphic DFT: CoeffsToSlots / SlotsToCoeffs
// ---------------------------------------------------------------------

// HomomorphicDFTConfig selects the shape of a homomorphic DFT.
type HomomorphicDFTConfig struct {
	// StartLevel is the level CoeffsToSlots consumes its input at. The
	// full round trip spends 2·Levels·RescalesPerLevel() limbs, so
	// StartLevel must exceed that.
	StartLevel int
	// Levels is the number of grouped butterfly matrices per direction:
	// more levels → sparser matrices (fewer rotations each) but more
	// depth. Must be in [1, log2(Slots)].
	Levels int
}

// HomomorphicDFT is a built CoeffsToSlots/SlotsToCoeffs pipeline: the
// factored encoding/decoding matrices pre-encoded as linear transforms at
// their scheduled levels. Immutable; safe for concurrent evaluation.
type HomomorphicDFT struct {
	StartLevel int
	Levels     int
	MidLevel   int // level the C2S outputs (and S2C inputs) live at

	C2S []*LinearTransform // application order
	S2C []*LinearTransform
}

// NewHomomorphicDFT builds the transform pipeline: the inverse special
// FFT factored into cfg.Levels grouped matrices for CoeffsToSlots (with
// the conjugate split's 1/2 folded into the last group), and the forward
// factorization for SlotsToCoeffs. Each group is scheduled one
// multiplicative level after its predecessor.
func (enc *Encoder) NewHomomorphicDFT(cfg HomomorphicDFTConfig) *HomomorphicDFT {
	p := enc.params
	logn := bits.Len(uint(p.Slots())) - 1
	if cfg.Levels < 1 || cfg.Levels > logn {
		panic("ckks: DFT level count out of range")
	}
	r := p.RescalesPerLevel()
	// The deepest transform runs at StartLevel − (2·Levels−1)·r and, like
	// every LinearTransform, needs 2r levels of room below it.
	if cfg.StartLevel > p.MaxLevel() || cfg.StartLevel < (2*cfg.Levels+1)*r {
		panic("ckks: DFT start level out of range for the transform depth")
	}
	emb := p.Embedder()
	c2sMats := emb.DFTMatrices(cfg.Levels, true)
	c2sMats[len(c2sMats)-1].Scale(0.5) // conjugate split: t′ = t/2
	s2cMats := emb.DFTMatrices(cfg.Levels, false)

	dft := &HomomorphicDFT{
		StartLevel: cfg.StartLevel,
		Levels:     cfg.Levels,
		MidLevel:   cfg.StartLevel - cfg.Levels*r,
	}
	for j, m := range c2sMats {
		dft.C2S = append(dft.C2S, enc.NewLinearTransform(m.Diags, cfg.StartLevel-j*r, 0))
	}
	for j, m := range s2cMats {
		dft.S2C = append(dft.S2C, enc.NewLinearTransform(m.Diags, dft.MidLevel-j*r, 0))
	}
	return dft
}

// Rotations returns the union of rotation steps every transform in the
// pipeline needs, ascending (the conjugation key is needed additionally —
// CoeffsToSlots' real/imaginary split uses it).
func (dft *HomomorphicDFT) Rotations() []int {
	set := map[int]bool{}
	for _, lts := range [][]*LinearTransform{dft.C2S, dft.S2C} {
		for _, lt := range lts {
			for _, s := range lt.Rotations() {
				set[s] = true
			}
		}
	}
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// HomomorphicDFTRotations computes the rotation set a homomorphic DFT
// with the given shape needs — from the stage geometry alone, without
// encoding any matrix (the key-owner side of the contract: owners export
// exactly this set plus the conjugation key, servers build the matching
// transform, and both derive the block sizes from the same analytic
// diagonal support). slots must be a power of two ≥ 2; levels in
// [1, log2(slots)].
func HomomorphicDFTRotations(slots, levels int) []int {
	logn := bits.Len(uint(slots)) - 1
	if slots < 2 || slots != 1<<uint(logn) {
		panic("ckks: slot count must be a power of two")
	}
	set := map[int]bool{}
	for _, inverse := range []bool{true, false} {
		for _, idx := range fftfp.DFTDiagIndices(logn, levels, inverse) {
			n1 := OptimalN1(slots, idx)
			babies, giants := BSGSSteps(slots, idx, n1)
			for _, s := range babies {
				set[s] = true
			}
			for _, s := range giants {
				set[s] = true
			}
		}
	}
	delete(set, 0)
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// CoeffsToSlots homomorphically moves the plaintext polynomial's
// coefficients into the message slots: the factored inverse special FFT,
// then the conjugate split. The returned pair (re, im) holds, in
// bit-reversed slot order, the real and imaginary coefficient halves
// c_r and c_{r+Slots} of the input's plaintext polynomial — the form
// EvalMod consumes. ct must be at dft.StartLevel; both outputs land at
// dft.MidLevel. conj is the conjugation key; rot must cover
// dft.Rotations().
func (ev *Evaluator) CoeffsToSlots(ct *Ciphertext, dft *HomomorphicDFT, rot map[int]*RotationKey, conj *RotationKey) (re, im *Ciphertext) {
	acc := ct
	for _, lt := range dft.C2S {
		acc = ev.LinearTransform(acc, lt, rot)
	}
	// acc's slots hold t′ = t/2 (the folded 1/2): Re t = t′ + conj(t′),
	// Im t = i·(conj(t′) − t′).
	cj := ev.RotateGalois(acc, conj)
	re = ev.Add(acc, cj)
	im = ev.MulByI(ev.Sub(cj, acc))
	return re, im
}

// SlotsToCoeffs inverts CoeffsToSlots: recombines the coefficient halves
// (re + i·im, one keyless monomial multiply) and applies the factored
// forward special FFT. Both inputs must be at dft.MidLevel with equal
// scales; the result lands at dft.StartLevel − 2·Levels·rescales.
func (ev *Evaluator) SlotsToCoeffs(re, im *Ciphertext, dft *HomomorphicDFT, rot map[int]*RotationKey) *Ciphertext {
	acc := ev.Add(re, ev.MulByI(im))
	for _, lt := range dft.S2C {
		acc = ev.LinearTransform(acc, lt, rot)
	}
	return acc
}
