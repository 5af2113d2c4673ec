package ckks

import (
	"repro/internal/prng"
	"repro/internal/ring"
)

// Key switching — the server-side machinery that makes
// ciphertext-ciphertext multiplication and slot rotations possible.
// ABC-FHE itself never executes these (it is a client accelerator), but
// the ciphertexts it produces are consumed by servers that do — so the
// server half of the protocol is a first-class citizen here, reachable
// through the public Server role.
//
// Construction: hybrid key switching with special primes (the P·Q
// construction every bootstrappable stack uses). The Q chain splits into
// dnum = ⌈L/α⌉ groups of α limbs, the modulus is raised to Q·P
// (P = p_0…p_{k-1}, k = α special primes), and the key holds one row per
// *group* over the extended basis:
//
//	ksk_j = (-a_j·s + e_j + P·δ_j·f,  a_j)  over  R_{Q·P},
//
// where δ_j is 1 on group-j limbs and 0 elsewhere (the RNS form of
// P·Q̂_j·[Q̂_j^{-1}]_{Q_j}). The switch ModUps each group's residues to the
// QP basis (rns.Extender), accumulates Σ_j D_j(c)·ksk_j there, and
// ModDowns by P with rounding — the P factor cancels, leaving c·f plus
// noise ≈ β·α·√N·σ·(Q_grp/P) ≲ σ·√(βαN). Keys hold ⌈L/α⌉ rows of L+k
// limbs, and the hot path runs β·(L+k) NTTs.
//
// Hot-path structure: every scratch polynomial comes from the lanes
// pools and every stage dispatches limb-wise through the engine, so the
// steady state allocates only the returned ciphertext and scales with
// workers like encrypt/decode. Rotations run *hoisted*: the decomposition
// (ModUp and its NTTs) is computed once per input ciphertext, and each
// Galois element is applied to the decomposed digits as an NTT-domain
// gather permutation — rotating one ciphertext by many steps pays the
// decomposition once (see Evaluator.RotateHoisted). The single-switch
// case (MulRelin, RotateGalois) runs the fused pipeline of
// keyswitch_fused.go instead, which never materializes the digits.

// Gadget is the key-switching decomposition byte of the evaluation-key
// wire format (evalkeyserialize.go). Hybrid is the only construction; the
// byte stays on the wire so blobs of any other construction are rejected
// with a typed error.
type Gadget byte

// GadgetHybrid is hybrid key switching with special primes (P·Q).
const GadgetHybrid Gadget = 1

// SwitchingKey holds the hybrid encryptions for one target polynomial:
// H0[j]/H1[j] are the two halves of the group-j row, NTT domain,
// Level+Alpha limbs over the extended basis (q_0..q_{Level-1},
// p_0..p_{α-1}). Level is the depth the key supports: the key can switch
// any ciphertext at level ≤ Level — depth-capped keys are how
// evaluation-key blobs stay proportional to the depth the server
// actually computes at.
type SwitchingKey struct {
	H0, H1 []*ring.Poly
	Alpha  int // group size α (== Parameters.SpecialLimbs)
	Level  int
}

// genHybridSwitchingKey builds the hybrid key that moves polynomial mass
// multiplied by fQP back to the secret: one row per decomposition group
// over the extended basis. sQP and fQP must be NTT-domain polynomials over
// RingQPAt(depth). Streams are consumed two per row from streamBase, so
// regeneration from the same seed is byte-identical.
func (kg *KeyGenerator) genHybridSwitchingKey(sQP, fQP *ring.Poly, depth int, streamBase uint64) *SwitchingKey {
	p := kg.params
	rqp := p.RingQPAt(depth)
	beta := p.DnumAt(depth)
	ksk := &SwitchingKey{
		Alpha: p.SpecialLimbs, Level: depth,
		H0: make([]*ring.Poly, beta), H1: make([]*ring.Poly, beta),
	}
	stream := streamBase
	for j := 0; j < beta; j++ {
		stream += 2
		a := rqp.NewPoly()
		rqp.UniformPoly(prng.NewSource(kg.seed, stream), a)
		a.IsNTT = true

		e := rqp.GetPolyUninit() // sampler fully overwrites
		rqp.GaussianPoly(prng.NewSource(kg.seed, stream+1), e)
		rqp.NTT(e)

		b := rqp.NewPoly()
		rqp.MulCoeffs(a, sQP, b)
		rqp.Neg(b, b)
		rqp.Add(b, e, b)
		rqp.PutPoly(e)

		// + P·δ_j·f: the gadget term touches only group-j limbs (it is 0 on
		// the other Q limbs and ≡ 0 mod every special prime).
		lo, hi := p.groupRange(depth, j)
		for i := lo; i < hi; i++ {
			m := rqp.Basis.Moduli[i]
			sc := p.pModQ[i]
			fi, bi := fQP.Coeffs[i], b.Coeffs[i]
			for x := range bi {
				bi[x] = m.Add(bi[x], m.Mul(fi[x], sc))
			}
		}
		ksk.H0[j], ksk.H1[j] = b, a
	}
	return ksk
}

// hoistedDigits is a ciphertext's c1 in decomposed, NTT-domain form —
// the expensive half of a key switch, computed once and reusable across
// any number of Galois elements: dig[j] is group j raised to the QP basis
// (level+α limbs). All storage is pooled: release with releaseDigits.
type hoistedDigits struct {
	dig   []*ring.Poly
	level int
}

// releaseDigits returns the decomposition's pooled storage.
func (p *Parameters) releaseDigits(h *hoistedDigits) {
	rl := p.RingAt(h.level)
	for _, d := range h.dig {
		rl.PutPoly(d)
	}
}

// applyHybridInto accumulates the key switch of the hoisted digits into
// (acc0, acc1) — NTT domain, h.level limbs. It sums Σ_j σ(D_j)·ksk_j over
// the extended QP basis in one fused limb-major lane dispatch, where σ is
// the NTT-domain gather permutation (perm, nil ⇒ identity; applying σ to
// the digits is the hoisting identity, which holds for any ring
// automorphism). Key limbs are addressed through the depth-capped key's
// geometry, so a level-ℓ switch reads rows 0..ℓ-1 and the P tail of each
// Level-limb key row. Both halves are then ModDowned by P with rounding
// into the Q-basis accumulators.
func (p *Parameters) applyHybridInto(h *hoistedDigits, ksk *SwitchingKey, perm []int32, acc0, acc1 *ring.Poly) {
	if h.level > ksk.Level {
		panic("ckks: ciphertext level exceeds switching-key depth")
	}
	level, k := h.level, p.SpecialLimbs
	rqp := p.RingQPAt(level)
	s0 := rqp.GetPoly() // accumulators start at zero
	s1 := rqp.GetPoly()
	s0.IsNTT, s1.IsNTT = true, true
	rqp.Engine().Run(level+k, func(m int) {
		km := m // key-row limb index: Q part aligns, P tail sits at ksk.Level
		if m >= level {
			km = ksk.Level + (m - level)
		}
		a0, a1 := s0.Coeffs[m], s1.Coeffs[m]
		for j, dj := range h.dig {
			d := dj.Coeffs[m]
			k0 := ksk.H0[j].Coeffs[km]
			k1 := ksk.H1[j].Coeffs[km]
			rqp.MulAddPairRow(m, perm, d, k0, k1, a0, a1)
		}
	})
	p.modDownInto(s0, level, acc0)
	p.modDownInto(s1, level, acc1)
	rqp.PutPoly(s0)
	rqp.PutPoly(s1)
}

// modDownInto adds round(acc/P) to out (both NTT domain): the closing
// basis reduction of a hybrid switch. acc (level+k limbs over QP) is
// consumed.
func (p *Parameters) modDownInto(acc *ring.Poly, level int, out *ring.Poly) {
	rq := p.RingAt(level)
	scratch := rq.GetPolyUninit() // ModUp inside fully overwrites
	ring.ModDownNTTInto(rq, p.ringP, p.modDownExtender(level), p.pInvModQ, acc, scratch, out)
	rq.PutPoly(scratch)
}

// ---------------------------------------------------------------------
// Relinearization
// ---------------------------------------------------------------------

// RelinearizationKey switches s² mass back to s.
type RelinearizationKey struct{ K *SwitchingKey }

// hybridRelinStreamBase seeds the relinearization key's sampling streams
// (hybridRotationStreamBase is its rotation sibling). The values are part
// of the wire contract: every existing hybrid blob derives its masks and
// errors from these windows, so moving either changes the bytes of every
// hybrid key a given owner seed exports.
const hybridRelinStreamBase = 1 << 52

// GenRelinearizationKeyHybridAt derives the hybrid relinearization key
// capped at `depth` limbs (usable for MulRelin at levels ≤ depth). The
// secret is re-derived from the generator's seed and expanded onto the
// extended basis (the stored SecretKey carries only Q limbs), so no
// argument is needed beyond the depth.
func (kg *KeyGenerator) GenRelinearizationKeyHybridAt(depth int) *RelinearizationKey {
	p := kg.params
	if depth < 1 || depth > p.MaxLevel() {
		panic("ckks: relinearization-key depth out of range")
	}
	rqp := p.RingQPAt(depth)
	s := kg.secretQP(depth)
	s2 := rqp.GetPolyUninit() // MulCoeffs fully overwrites
	rqp.MulCoeffs(s, s, s2)
	rlk := &RelinearizationKey{K: kg.genHybridSwitchingKey(s, s2, depth, hybridRelinStreamBase)}
	rqp.PutPoly(s2)
	rqp.PutPoly(s)
	return rlk
}

// MulRelin multiplies two ciphertexts and relinearizes the degree-2 term:
// (a0,a1)·(b0,b1) → (a0b0 + ks0, a0b1 + a1b0 + ks1) where (ks0, ks1) is
// the switched a1b1. The result's scale is the product of scales; rescale
// afterwards. The operands' level must not exceed rlk's depth. All scratch
// is pooled; only the returned ciphertext is freshly allocated.
func (ev *Evaluator) MulRelin(a, b *Ciphertext, rlk *RelinearizationKey) *Ciphertext {
	sameLevelScale(a, b)
	return ev.mulRelinUnchecked(a, b, rlk)
}

// mulRelinUnchecked is MulRelin without the equal-scale precondition: the
// operands' levels must match, but their scales may differ (the result's
// scale is still the product). EvalPoly's giant steps rely on this — the
// quotient branch is deliberately evaluated at scale S·q/S_giant so the
// product lands back on the schedule's target after rescaling.
func (ev *Evaluator) mulRelinUnchecked(a, b *Ciphertext, rlk *RelinearizationKey) *Ciphertext {
	if a.Level != b.Level {
		panic("ckks: ciphertext level mismatch")
	}
	level := a.Level
	if level > rlk.K.Level {
		panic("ckks: ciphertext level exceeds relinearization-key depth")
	}
	rl := ev.ringAt(level)

	a0 := rl.GetPolyCopy(a.C0)
	a1 := rl.GetPolyCopy(a.C1)
	b0 := rl.GetPolyCopy(b.C0)
	b1 := rl.GetPolyCopy(b.C1)
	rl.NTT(a0)
	rl.NTT(a1)
	rl.NTT(b0)
	rl.NTT(b1)

	c0 := rl.NewPoly() // returned — caller-owned, never pooled
	c1 := rl.NewPoly()
	c2 := rl.GetPolyUninit()
	rl.MulCoeffs(a0, b0, c0)    // a0·b0
	rl.MulCoeffs(a0, b1, c1)    // a0·b1
	rl.MulCoeffsAdd(a1, b0, c1) // + a1·b0
	rl.MulCoeffs(a1, b1, c2)    // the degree-2 term
	rl.PutPoly(a0)
	rl.PutPoly(a1)
	rl.PutPoly(b0)
	rl.PutPoly(b1)

	// Key-switch c2 (the decomposition reads the coefficient domain),
	// accumulating directly into the result halves; the closing INTTs are
	// folded into the fused pipeline's last stage.
	rl.INTT(c2)
	ev.params.switchHybridFused(c2, level, rlk.K, nil, c0, c1, true)
	rl.PutPoly(c2)
	return &Ciphertext{C0: c0, C1: c1, Level: level, Scale: a.Scale * b.Scale}
}

// ---------------------------------------------------------------------
// Rotations (Galois automorphisms)
// ---------------------------------------------------------------------

// automorphism applies X → X^g to a coefficient-domain polynomial into a
// freshly allocated result (see ring.AutomorphismCoeff for the in-place
// kernel the hot paths use).
func automorphism(rl *ring.Ring, p *ring.Poly, g int) *ring.Poly {
	out := rl.NewPoly()
	rl.AutomorphismCoeff(p, g, out)
	return out
}

// GaloisElement returns the automorphism generator for a rotation by k
// slots: 5^k mod 2N (k may be negative).
func (p *Parameters) GaloisElement(k int) int {
	m := 2 * p.N()
	// order of 5 in (Z/2N)* is N/2; normalize k into [0, N/2).
	g := 1
	for i, n := 0, p.NormalizeStep(k); i < n; i++ {
		g = g * 5 % m
	}
	return g
}

// GaloisElementConjugate is the generator of complex conjugation: -1 mod 2N.
func (p *Parameters) GaloisElementConjugate() int { return 2*p.N() - 1 }

// NormalizeStep reduces a rotation step into [0, Slots): rotations act on
// the N/2 message slots, and 5 has order N/2 in (Z/2N)*.
func (p *Parameters) NormalizeStep(k int) int {
	half := p.Slots()
	return ((k % half) + half) % half
}

// RotationKey enables rotation by one fixed Galois element. Perm is the
// NTT-domain permutation realizing the automorphism on hoisted digits.
type RotationKey struct {
	G    int
	K    *SwitchingKey
	Perm []int32
}

// hybridRotationStreamBase seeds the rotation key for Galois element g:
// elements are < 2N ≤ 2^18 and each switching key consumes well under
// 2^20 streams, so the per-element windows are disjoint from each other
// and from the relinearization window. Like hybridRelinStreamBase, the
// value is fixed by the bytes of existing hybrid blobs.
func hybridRotationStreamBase(g int) uint64 { return 1<<53 + uint64(g)<<20 }

// GenRotationKeyHybridAt derives the hybrid rotation key for Galois
// element g capped at `depth` limbs: it switches s(X^g) mass back to s
// over the raised modulus. Like the hybrid relinearization key, the
// secret is re-derived from the seed onto the extended basis.
func (kg *KeyGenerator) GenRotationKeyHybridAt(g, depth int) *RotationKey {
	p := kg.params
	if depth < 1 || depth > p.MaxLevel() {
		panic("ckks: rotation-key depth out of range")
	}
	rqp := p.RingQPAt(depth)
	s := kg.secretQP(depth)
	sCoeff := rqp.GetPolyCopy(s)
	rqp.INTT(sCoeff)
	sg := rqp.GetPolyUninit() // automorphism writes every index
	rqp.AutomorphismCoeff(sCoeff, g, sg)
	rqp.NTT(sg)
	rk := &RotationKey{
		G:    g,
		K:    kg.genHybridSwitchingKey(s, sg, depth, hybridRotationStreamBase(g)),
		Perm: p.Ring().GaloisPermNTT(g),
	}
	rqp.PutPoly(sCoeff)
	rqp.PutPoly(sg)
	rqp.PutPoly(s)
	return rk
}

// RotateGalois applies the automorphism X → X^g and key-switches back to
// s. With g = GaloisElement(k) this rotates the message slots by k. The
// key switch runs on the fused pipeline: the hoisted digits are never
// materialized (nothing reuses them for a single rotation), the permuted
// switch lands directly in the result halves, and the closing INTTs ride
// the divide stage; σ(c0) is applied in the coefficient domain.
func (ev *Evaluator) RotateGalois(ct *Ciphertext, rk *RotationKey) *Ciphertext {
	level := ct.Level
	if level > rk.K.Level {
		panic("ckks: ciphertext level exceeds rotation-key depth")
	}
	rl := ev.ringAt(level)
	out0 := rl.NewPoly() // returned — caller-owned, never pooled
	out1 := rl.NewPoly()
	out0.IsNTT, out1.IsNTT = true, true
	ev.params.switchHybridFused(ct.C1, level, rk.K, rk.Perm, out0, out1, true)

	c0g := rl.GetPolyUninit() // automorphism writes every index
	rl.AutomorphismCoeff(ct.C0, rk.G, c0g)
	rl.Add(out0, c0g, out0)
	rl.PutPoly(c0g)

	return &Ciphertext{C0: out0, C1: out1, Level: level, Scale: ct.Scale}
}

// RotateHoisted rotates one ciphertext by every key in rks, paying the
// decomposition (β ModUps and their NTTs) once: each additional rotation costs only
// the O(N)-per-limb gather-multiply-accumulate and the closing transforms.
// Results are index-aligned with rks.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, rks []*RotationKey) []*Ciphertext {
	if len(rks) == 0 {
		return nil
	}
	h := ev.params.hoistHybridFused(ct.C1, ct.Level)
	out := make([]*Ciphertext, len(rks))
	for i, rk := range rks {
		out[i] = ev.rotateFromDigits(ct, h, rk)
	}
	ev.params.releaseDigits(h)
	return out
}

// rotateFromDigits finishes one rotation from a hoisted decomposition of
// ct.C1: permuted key-switch accumulate, closing INTTs, and σ(c0).
func (ev *Evaluator) rotateFromDigits(ct *Ciphertext, h *hoistedDigits, rk *RotationKey) *Ciphertext {
	level := ct.Level
	if level > rk.K.Level {
		panic("ckks: ciphertext level exceeds rotation-key depth")
	}
	rl := ev.ringAt(level)
	out0 := rl.NewPoly() // returned — caller-owned, never pooled
	out1 := rl.NewPoly()
	out0.IsNTT, out1.IsNTT = true, true
	ev.params.applyHybridInto(h, rk.K, rk.Perm, out0, out1)
	rl.INTT(out0)
	rl.INTT(out1)

	c0g := rl.GetPolyUninit() // automorphism writes every index
	rl.AutomorphismCoeff(ct.C0, rk.G, c0g)
	rl.Add(out0, c0g, out0)
	rl.PutPoly(c0g)

	return &Ciphertext{C0: out0, C1: out1, Level: level, Scale: ct.Scale}
}
