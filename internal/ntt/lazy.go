package ntt

// Lazy-reduction transforms: the software analogue of what the RFE's
// 44-bit datapath headroom buys in hardware. Limb primes are ≤ 36 bits
// while the datapath is 44 bits wide (paper §III), so butterfly outputs
// can stay in extended ranges across stages, skipping the conditional
// corrections; a single final pass normalizes into [0, q). These are the
// kernels ring.NTT/INTT run — the strict Forward/Inverse in ntt.go remain
// the spec-shaped oracle (and serve PolyMul and the Galois schedule
// recovery), and both produce byte-identical canonical output (asserted
// by TestForwardLazyMatchesForward / TestInverseLazyMatchesInverse).
//
// The forward direction is the classic Harvey formulation ("Faster
// arithmetic for number-theoretic transforms"): with inputs in [0, 4q),
// compute
//
//	u' = u - (u ≥ 2q ? 2q : 0)        — one conditional subtraction
//	v' = MRed(v, w)                   — result in [0, 2q) (lazy Montgomery)
//	out0 = u' + v'          ∈ [0, 4q)
//	out1 = u' - v' + 2q     ∈ [0, 4q)
//
// Correct whenever 4q < 2^64 (true for every limb width mod accepts).
// The inverse (Gentleman–Sande) keeps values in [0, 2q): the sum side
// takes one conditional subtraction of 2q, the difference side is lazily
// Montgomery-multiplied back into [0, 2q), and the closing N^{-1} scaling
// reduces canonically.
//
// Inner loops are written for the Go compiler's bounds-check elimination:
// the two butterfly halves are hoisted into equal-length subslices (the
// `y = y[:len(x)]` reslice is what lets the prover drop the checks on y)
// and unrolled 2×; Montgomery reduction is inlined via mredLazy so each
// butterfly compiles to straight-line multiply/add/csel code.

import "math/bits"

// mredLazy is Montgomery multiplication without the final conditional
// subtraction: a·b·2^{-64} mod q, returned in [0, 2q) for a·b < q·2^64.
// Small enough for the inliner, and built on the Mul64/Add64 intrinsics.
func mredLazy(a, b, q, qInv uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	w := lo * qInv
	mh, ml := bits.Mul64(w, q)
	_, carry := bits.Add64(lo, ml, 0)
	return hi + mh + carry
}

// ForwardLazy computes the forward negacyclic NTT with lazy reduction.
// Input in [0, q), output in [0, q) — byte-identical to Forward (the
// final sweep normalizes the [0, 4q) intermediates canonically).
func (t *Table) ForwardLazy(a []uint64) {
	if len(a) != t.N {
		panic("ntt: length mismatch")
	}
	m := t.Mod
	q := m.Q
	qInv := m.QInv
	twoQ := 2 * q
	psi := t.PsiRev
	n := t.N

	// All stages with tt ≥ 2: subsliced, 2×-unrolled butterflies.
	for mm, tt := 1, n>>1; tt > 1; mm, tt = mm<<1, tt>>1 {
		for i := 0; i < mm; i++ {
			s := psi[mm+i]
			j1 := 2 * i * tt
			x := a[j1 : j1+tt : j1+tt]
			y := a[j1+tt : j1+2*tt : j1+2*tt]
			y = y[:len(x)]
			for j := 0; j+1 < len(x); j += 2 {
				u0, u1 := x[j], x[j+1]
				if u0 >= twoQ {
					u0 -= twoQ
				}
				if u1 >= twoQ {
					u1 -= twoQ
				}
				v0 := mredLazy(y[j], s, q, qInv)
				v1 := mredLazy(y[j+1], s, q, qInv)
				x[j] = u0 + v0
				x[j+1] = u1 + v1
				y[j] = u0 - v0 + twoQ
				y[j+1] = u1 - v1 + twoQ
			}
		}
	}

	// Last stage (tt == 1): adjacent pairs, one twiddle per butterfly —
	// subslicing per pair would cost more than the bounds checks it saves.
	if n >= 2 {
		h := n >> 1
		for i, j := 0, 0; i < h; i, j = i+1, j+2 {
			s := psi[h+i]
			u := a[j]
			if u >= twoQ {
				u -= twoQ
			}
			v := mredLazy(a[j+1], s, q, qInv)
			a[j] = u + v
			a[j+1] = u - v + twoQ
		}
	}

	// Normalize [0, 4q) → [0, q): canonical, matching Forward's output.
	for j := range a {
		v := a[j]
		if v >= twoQ {
			v -= twoQ
		}
		if v >= q {
			v -= q
		}
		a[j] = v
	}
}

// InverseLazy computes the inverse negacyclic NTT (including the N^{-1}
// scaling) with lazy reduction. Input in [0, q), output in [0, q) —
// byte-identical to Inverse; intermediates roam [0, 2q).
func (t *Table) InverseLazy(a []uint64) {
	if len(a) != t.N {
		panic("ntt: length mismatch")
	}
	m := t.Mod
	q := m.Q
	qInv := m.QInv
	twoQ := 2 * q
	psiInv := t.PsiInvRev

	// First stage (tt == 1): adjacent pairs.
	n := t.N
	if n >= 2 {
		h := n >> 1
		for i, j := 0, 0; i < h; i, j = i+1, j+2 {
			s := psiInv[h+i]
			u, v := a[j], a[j+1]
			uv := u + v
			if uv >= twoQ {
				uv -= twoQ
			}
			a[j] = uv
			a[j+1] = mredLazy(u-v+twoQ, s, q, qInv)
		}
	}

	// Remaining stages (tt ≥ 2): subsliced, 2×-unrolled.
	tt := 2
	for mm := n >> 1; mm > 1; mm >>= 1 {
		h := mm >> 1
		j1 := 0
		for i := 0; i < h; i++ {
			s := psiInv[h+i]
			x := a[j1 : j1+tt : j1+tt]
			y := a[j1+tt : j1+2*tt : j1+2*tt]
			y = y[:len(x)]
			for j := 0; j+1 < len(x); j += 2 {
				u0, u1 := x[j], x[j+1]
				v0, v1 := y[j], y[j+1]
				uv0 := u0 + v0
				uv1 := u1 + v1
				if uv0 >= twoQ {
					uv0 -= twoQ
				}
				if uv1 >= twoQ {
					uv1 -= twoQ
				}
				x[j] = uv0
				x[j+1] = uv1
				y[j] = mredLazy(u0-v0+twoQ, s, q, qInv)
				y[j+1] = mredLazy(u1-v1+twoQ, s, q, qInv)
			}
			j1 += 2 * tt
		}
		tt <<= 1
	}

	// Closing N^{-1} scaling: inputs in [0, 2q), outputs canonical — the
	// single conditional correction suffices because a·NInv < 2q·q keeps
	// the lazy result under 2q.
	nInv := t.NInv
	for j := range a {
		v := mredLazy(a[j], nInv, q, qInv)
		if v >= q {
			v -= q
		}
		a[j] = v
	}
}
