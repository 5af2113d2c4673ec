package ring

// Galois automorphisms and the fused kernels of the key-switch inner loop.
// Like every limb-wise kernel in this package, they dispatch through the
// lane engine and are bit-identical at any worker count (pure modular
// arithmetic landing at disjoint indices).

// GaloisPermNTT returns the NTT-domain permutation implementing X → X^g
// (g odd, in (0, 2N)): out[j] = in[perm[j]]. The permutation is a property
// of the transform's evaluation-point schedule, so one table serves every
// limb of the ring — level views share it too.
func (r *Ring) GaloisPermNTT(g int) []int32 {
	return r.Tables[0].GaloisPerm(g)
}

// PermuteNTT sets out = σ_g(p) for an NTT-domain p, using a permutation
// from GaloisPermNTT. In the evaluation domain the automorphism is a pure
// gather — no negations (the X^N = −1 wraps live in the evaluation
// points). out must not alias p.
func (r *Ring) PermuteNTT(p *Poly, perm []int32, out *Poly) {
	if !p.IsNTT {
		panic("ring: PermuteNTT requires NTT domain")
	}
	r.Engine().Run(len(p.Coeffs), func(i int) {
		pi, oi := p.Coeffs[i], out.Coeffs[i]
		for j := range oi {
			oi[j] = pi[perm[j]]
		}
	})
	out.IsNTT = true
}

// MulPermAdd sets out += σ(a) ⊙ b where σ is the NTT-domain gather
// permutation (nil ⇒ identity): out[i][j] += a[i][perm[j]]·b[i][j]. This
// is the fused multiply-accumulate of the hoisted key-switch inner loop —
// one pass instead of permute, multiply, add. All operands must be in the
// NTT domain; out must not alias a or b.
func (r *Ring) MulPermAdd(a *Poly, perm []int32, b, out *Poly) {
	if !a.IsNTT || !b.IsNTT || !out.IsNTT {
		panic("ring: MulPermAdd requires NTT domain")
	}
	r.Engine().Run(len(a.Coeffs), func(i int) {
		mulPermAddRow(r.Basis.Moduli[i], a.Coeffs[i], perm, b.Coeffs[i], out.Coeffs[i])
	})
}

// MulCoeffsAdd sets out += a ⊙ b (pointwise, NTT domain) — the unpermuted
// multiply-accumulate. out must not alias a or b.
func (r *Ring) MulCoeffsAdd(a, b, out *Poly) {
	r.MulPermAdd(a, nil, b, out)
}

// MulMonomial sets out = X^k · p for a coefficient-domain p — the
// negacyclic shift: coefficient j lands at (j+k) mod 2N, negated when the
// index wraps past N (X^N = −1). k must be in [0, 2N). A monomial multiply
// is O(N·L) coefficient movement with no NTT — the cheap way to realize
// slot-wise multiplication by a root of unity (X^{N/2} has every slot
// equal to i, which is how the homomorphic DFT's conjugate split combines
// real and imaginary parts). Every output index is written exactly once,
// so a pooled uninitialized target is safe. out must not alias p.
func (r *Ring) MulMonomial(p *Poly, k int, out *Poly) {
	if p.IsNTT {
		panic("ring: MulMonomial expects coefficient domain")
	}
	if k < 0 || k >= 2*r.N {
		panic("ring: monomial degree must be in [0, 2N)")
	}
	n := r.N
	r.Engine().Run(len(p.Coeffs), func(i int) {
		m := r.Basis.Moduli[i]
		pi, oi := p.Coeffs[i], out.Coeffs[i]
		for j := 0; j < n; j++ {
			idx := j + k
			v := pi[j]
			if idx >= 2*n {
				idx -= 2 * n
			} else if idx >= n {
				idx -= n
				v = m.Neg(v)
			}
			oi[idx] = v
		}
	})
	out.IsNTT = false
}

// AutomorphismCoeff sets out = σ_g(p) for a coefficient-domain p:
// coefficient j lands at g·j mod 2N, negated when the index wraps past N
// (X^N = −1). Every output index is written exactly once (g odd ⇒ the map
// is a bijection), so a pooled uninitialized target is safe. out must not
// alias p.
func (r *Ring) AutomorphismCoeff(p *Poly, g int, out *Poly) {
	if p.IsNTT {
		panic("ring: AutomorphismCoeff expects coefficient domain")
	}
	if g&1 == 0 || g <= 0 || g >= 2*r.N {
		panic("ring: Galois element must be odd in (0, 2N)")
	}
	n := r.N
	mask := 2*n - 1
	r.Engine().Run(len(p.Coeffs), func(i int) {
		m := r.Basis.Moduli[i]
		pi, oi := p.Coeffs[i], out.Coeffs[i]
		for j := 0; j < n; j++ {
			idx := (g * j) & mask
			v := pi[j]
			if idx >= n {
				idx -= n
				v = m.Neg(v)
			}
			oi[idx] = v
		}
	})
	out.IsNTT = false
}
