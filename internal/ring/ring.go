// Package ring implements the RNS polynomial ring R_Q = Z_Q[X]/(X^N+1)
// that CKKS ciphertexts live in: polynomials stored limb-wise, with
// per-limb NTT transforms and coefficient-wise arithmetic.
//
// This is the data structure streamed through ABC-FHE's reconfigurable
// streaming cores: one limb is one "Ring #i" pass through a pipelined NTT
// lane (paper Fig. 2a/3b). Limbs are independent, so every limb-wise
// operation dispatches through a lanes.Engine — the software counterpart
// of the paper's parallel NTT-lane (PNL) array. Dispatch never reorders
// or re-partitions the work itself, so results are bit-identical at any
// worker count.
package ring

import (
	"fmt"

	"repro/internal/lanes"
	"repro/internal/ntt"
	"repro/internal/prng"
	"repro/internal/rns"
)

// Ring bundles a degree, an RNS basis, per-limb NTT tables, and the lane
// engine its limb-wise kernels run on.
type Ring struct {
	N      int
	LogN   int
	Basis  *rns.Basis
	Tables []*ntt.Table // one per limb

	eng *lanes.Engine // nil ⇒ lanes.Default()
}

// NewRing constructs the ring of degree n (power of two) over the given
// prime limbs; every prime must satisfy q ≡ 1 mod 2n.
func NewRing(n int, primes []uint64) (*Ring, error) {
	basis, err := rns.NewBasis(primes)
	if err != nil {
		return nil, err
	}
	r := &Ring{N: n, Basis: basis}
	for n>>uint(r.LogN+1) > 0 {
		r.LogN++
	}
	if 1<<uint(r.LogN) != n {
		return nil, fmt.Errorf("ring: N=%d is not a power of two", n)
	}
	for _, q := range primes {
		t, err := ntt.NewTable(n, q)
		if err != nil {
			return nil, err
		}
		r.Tables = append(r.Tables, t)
	}
	return r, nil
}

// MustRing panics on error.
func MustRing(n int, primes []uint64) *Ring {
	r, err := NewRing(n, primes)
	if err != nil {
		panic(err)
	}
	return r
}

// K returns the number of limbs.
func (r *Ring) K() int { return r.Basis.K() }

// SetEngine pins the ring's limb-wise kernels to e (nil restores the
// shared default engine). Set before concurrent use; level views created
// afterwards inherit it.
func (r *Ring) SetEngine(e *lanes.Engine) { r.eng = e }

// Engine returns the lane engine limb-wise kernels dispatch through.
func (r *Ring) Engine() *lanes.Engine {
	if r.eng != nil {
		return r.eng
	}
	return lanes.Default()
}

// AtLevel returns a view of the ring restricted to the first `level` limbs.
// Tables and the lane engine are shared, and the sub-basis (with its CRT
// and fast-combine tables) is memoized inside rns.Basis, so repeated views
// of the same level are cheap. ckks.Parameters.RingAt additionally caches
// the Ring wrappers themselves for the hot paths.
func (r *Ring) AtLevel(level int) *Ring {
	if level < 1 || level > r.K() {
		panic("ring: level out of range")
	}
	return &Ring{
		N:      r.N,
		LogN:   r.LogN,
		Basis:  r.Basis.Sub(level),
		Tables: r.Tables[:level],
		eng:    r.eng,
	}
}

// Poly is an RNS polynomial: Coeffs[i][j] is coefficient j mod prime i.
// IsNTT records the current domain.
type Poly struct {
	Coeffs [][]uint64
	IsNTT  bool

	mat *lanes.Matrix // non-nil iff the storage came from the scratch pool
}

// NewPoly allocates a zero polynomial with r.K() limbs. Use for
// long-lived objects (keys, returned ciphertexts); scratch should come
// from GetPoly so its storage recycles.
func (r *Ring) NewPoly() *Poly {
	limbs := make([][]uint64, r.K())
	backing := make([]uint64, r.K()*r.N)
	for i := range limbs {
		limbs[i] = backing[i*r.N : (i+1)*r.N : (i+1)*r.N]
	}
	return &Poly{Coeffs: limbs}
}

// GetPoly returns a zeroed polynomial from the (N, limbs)-keyed scratch
// pool. Return it with PutPoly when its contents are dead; polys handed
// to callers may simply never be returned.
func (r *Ring) GetPoly() *Poly {
	m := lanes.GetMatrix(r.K(), r.N)
	m.Zero()
	return &Poly{Coeffs: m.Rows, mat: m}
}

// GetPolyUninit is GetPoly without the memclr: contents are unspecified
// (stale residues from a previous user). Only for scratch the caller
// fully overwrites before reading — samplers, MulCoeffs targets, copies.
// At paper parameters the skipped clear is K·N words (megabytes), a real
// fraction of the bandwidth the pooling exists to save.
func (r *Ring) GetPolyUninit() *Poly {
	m := lanes.GetMatrix(r.K(), r.N)
	return &Poly{Coeffs: m.Rows, mat: m}
}

// PutPoly recycles a GetPoly polynomial. It nils p's storage so a stale
// reference fails fast, and is a no-op for non-pooled or already-returned
// polys (so defensive Puts are safe).
func (r *Ring) PutPoly(p *Poly) {
	if p == nil || p.mat == nil {
		return
	}
	lanes.PutMatrix(p.mat)
	p.mat = nil
	p.Coeffs = nil
}

// CopyPoly returns a deep copy.
func (r *Ring) CopyPoly(p *Poly) *Poly {
	out := r.NewPoly()
	for i := range p.Coeffs {
		copy(out.Coeffs[i], p.Coeffs[i])
	}
	out.IsNTT = p.IsNTT
	return out
}

// GetPolyCopy is CopyPoly with pooled storage (uninitialized underneath —
// the copy overwrites every word).
func (r *Ring) GetPolyCopy(p *Poly) *Poly {
	out := r.GetPolyUninit()
	for i := range p.Coeffs {
		copy(out.Coeffs[i], p.Coeffs[i])
	}
	out.IsNTT = p.IsNTT
	return out
}

// Level returns the number of limbs of p (which may be fewer than the
// ring's if p came from a lower level).
func (p *Poly) Level() int { return len(p.Coeffs) }

// NTT transforms every limb to the evaluation domain in place, one limb
// per lane (paper Fig. 3b: the PNL array runs per-limb NTTs concurrently).
// The transform kernel runs lazy-reduction butterflies and closes with
// one canonical [0, q) pass, so its output equals the strict reference
// ntt.Table.Forward.
func (r *Ring) NTT(p *Poly) {
	if p.IsNTT {
		panic("ring: NTT on already-transformed poly")
	}
	r.Engine().Run(len(p.Coeffs), func(i int) {
		r.Tables[i].ForwardLazy(p.Coeffs[i])
	})
	p.IsNTT = true
}

// INTT transforms back to the coefficient domain in place.
func (r *Ring) INTT(p *Poly) {
	if !p.IsNTT {
		panic("ring: INTT on coefficient-domain poly")
	}
	r.Engine().Run(len(p.Coeffs), func(i int) {
		r.Tables[i].InverseLazy(p.Coeffs[i])
	})
	p.IsNTT = false
}

func (r *Ring) checkCompat(a, b *Poly) {
	if a.Level() != b.Level() {
		panic("ring: level mismatch")
	}
	if a.IsNTT != b.IsNTT {
		panic("ring: domain mismatch")
	}
}

// Add sets out = a + b (limb-wise). out may alias a or b.
func (r *Ring) Add(a, b, out *Poly) {
	r.checkCompat(a, b)
	r.Engine().Run(len(a.Coeffs), func(i int) {
		m := r.Basis.Moduli[i]
		ai, bi, oi := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := range ai {
			oi[j] = m.Add(ai[j], bi[j])
		}
	})
	out.IsNTT = a.IsNTT
}

// Sub sets out = a - b.
func (r *Ring) Sub(a, b, out *Poly) {
	r.checkCompat(a, b)
	r.Engine().Run(len(a.Coeffs), func(i int) {
		m := r.Basis.Moduli[i]
		ai, bi, oi := a.Coeffs[i], b.Coeffs[i], out.Coeffs[i]
		for j := range ai {
			oi[j] = m.Sub(ai[j], bi[j])
		}
	})
	out.IsNTT = a.IsNTT
}

// Neg sets out = -a.
func (r *Ring) Neg(a, out *Poly) {
	r.Engine().Run(len(a.Coeffs), func(i int) {
		m := r.Basis.Moduli[i]
		ai, oi := a.Coeffs[i], out.Coeffs[i]
		for j := range ai {
			oi[j] = m.Neg(ai[j])
		}
	})
	out.IsNTT = a.IsNTT
}

// MulCoeffs sets out = a ⊙ b (pointwise). Both operands must be in the NTT
// domain — pointwise products in the coefficient domain are not ring
// products, and the panic guards against that misuse. The row kernel is
// a Barrett product (rows.go).
func (r *Ring) MulCoeffs(a, b, out *Poly) {
	r.checkCompat(a, b)
	if !a.IsNTT {
		panic("ring: MulCoeffs requires NTT domain")
	}
	r.Engine().Run(len(a.Coeffs), func(i int) {
		mulRow(r.Basis.Moduli[i], a.Coeffs[i], b.Coeffs[i], out.Coeffs[i])
	})
	out.IsNTT = true
}

// MulScalar sets out = a · s for a word scalar s.
func (r *Ring) MulScalar(a *Poly, s uint64, out *Poly) {
	r.Engine().Run(len(a.Coeffs), func(i int) {
		m := r.Basis.Moduli[i]
		mulScalarRow(m, s%m.Q, a.Coeffs[i], out.Coeffs[i])
	})
	out.IsNTT = a.IsNTT
}

// Sampling ---------------------------------------------------------------

// UniformPoly fills p with independent uniform residues per limb (a fresh
// mask "a"; on hardware this streams straight out of the PRNG).
//
// The limbs consume one sequential rejection-sampled stream, so this stage
// stays serial by construction: splitting the stream across lanes would
// change which words each limb sees and break the determinism contract.
func (r *Ring) UniformPoly(src *prng.Source, p *Poly) {
	for i := range p.Coeffs {
		src.UniformPoly(p.Coeffs[i], r.Basis.Moduli[i].Q)
	}
	p.IsNTT = false
}

// ExpandSignedBits fills p limb-wise from vals, where vals[j] carries the
// two's-complement bits of the centered integer coefficient j — the
// shared expansion stage of every shared-coefficient sampler (secrets,
// encryption randomness, errors). Pure arithmetic over read-only moduli,
// so it fans out across the lanes.
func (r *Ring) ExpandSignedBits(vals []uint64, p *Poly) {
	r.Engine().Run(len(p.Coeffs), func(i int) {
		m := r.Basis.Moduli[i]
		pi := p.Coeffs[i]
		for j, v := range vals {
			pi[j] = m.FromCentered(int64(v))
		}
	})
	p.IsNTT = false
}

// sharedSigned samples one signed value per coefficient and expands it
// consistently into every limb (the same underlying integer polynomial).
// The PRNG draw is serial — the stream's order is part of the scheme's
// determinism contract — before the lane-parallel expansion.
func (r *Ring) sharedSigned(p *Poly, sample func() int64) {
	vals := lanes.GetSlab(r.N)
	for j := range vals {
		vals[j] = uint64(sample())
	}
	r.ExpandSignedBits(vals, p)
	lanes.PutSlab(vals)
}

// TernaryPoly fills p with a shared uniform-ternary polynomial across all
// limbs (encryption randomness u, secret keys).
func (r *Ring) TernaryPoly(src *prng.Source, p *Poly) {
	r.sharedSigned(p, src.TernarySample)
}

// GaussianPoly fills p with a shared discrete-Gaussian polynomial (errors).
func (r *Ring) GaussianPoly(src *prng.Source, p *Poly) {
	r.sharedSigned(p, src.GaussianSample)
}

// Equal reports deep equality (same domain, same residues).
func (r *Ring) Equal(a, b *Poly) bool {
	if a.IsNTT != b.IsNTT || a.Level() != b.Level() {
		return false
	}
	for i := range a.Coeffs {
		for j := range a.Coeffs[i] {
			if a.Coeffs[i][j] != b.Coeffs[i][j] {
				return false
			}
		}
	}
	return true
}
