package ring_test

// Kernel oracles: every production row kernel and transform must equal
// the spec-shaped reference it replaced — the generic 128-bit reduction
// of mod.Modulus, one method call per element, and the strict
// ntt.Table.Forward/Inverse — on every prime any preset uses (Q and P
// chains), with and without a Galois gather, and with the residues 0, 1
// and q−1 in every operand.

import (
	"fmt"
	"testing"

	"repro/internal/ckks"
	"repro/internal/mod"
	"repro/internal/primes"
	"repro/internal/prng"
	"repro/internal/ring"
)

// Reference row loops: generic 128-bit reduction, one mod.Modulus call
// per element. The Barrett loops in rows.go must produce the same
// residues.

func refMulRow(m mod.Modulus, ai, bi, oi []uint64) {
	for j := range ai {
		oi[j] = m.Mul(ai[j], bi[j])
	}
}

func refMulScalarRow(m mod.Modulus, s uint64, ai, oi []uint64) {
	sc := s % m.Q
	for j := range ai {
		oi[j] = m.Mul(ai[j], sc)
	}
}

func refMulPermAddRow(m mod.Modulus, ai []uint64, perm []int32, bi, oi []uint64) {
	if perm == nil {
		for j := range oi {
			oi[j] = m.Add(oi[j], m.Mul(ai[j], bi[j]))
		}
		return
	}
	for j := range oi {
		oi[j] = m.Add(oi[j], m.Mul(ai[perm[j]], bi[j]))
	}
}

func refMulAddPairRow(m mod.Modulus, perm []int32, d, k0, k1, a0, a1 []uint64) {
	if perm == nil {
		for j := range a0 {
			a0[j] = m.Add(a0[j], m.Mul(d[j], k0[j]))
			a1[j] = m.Add(a1[j], m.Mul(d[j], k1[j]))
		}
		return
	}
	for j := range a0 {
		dp := d[perm[j]]
		a0[j] = m.Add(a0[j], m.Mul(dp, k0[j]))
		a1[j] = m.Add(a1[j], m.Mul(dp, k1[j]))
	}
}

func refMulPairRow(m mod.Modulus, perm []int32, d, k0, k1, a0, a1 []uint64) {
	if perm == nil {
		for j := range a0 {
			a0[j] = m.Mul(d[j], k0[j])
			a1[j] = m.Mul(d[j], k1[j])
		}
		return
	}
	for j := range a0 {
		dp := d[perm[j]]
		a0[j] = m.Mul(dp, k0[j])
		a1[j] = m.Mul(dp, k1[j])
	}
}

func refSubMulAddRow(m mod.Modulus, inv uint64, si, ei, oi []uint64) {
	for j := range oi {
		oi[j] = m.Add(oi[j], m.BarrettMul(m.Sub(si[j], ei[j]), inv))
	}
}

// presetRings returns, per preset, a ring over its whole Q·P prime chain.
// The degree is capped at 2^10: a prime ≡ 1 mod 2N serves every smaller
// power-of-two degree, and the kernels' arithmetic does not depend on N.
func presetRings(t *testing.T) map[string]*ring.Ring {
	t.Helper()
	specs := map[string]ckks.ParamSpec{
		"PN16": ckks.PN16, "PN15": ckks.PN15, "PN14": ckks.PN14,
		"PN13": ckks.PN13, "Test": ckks.TestParams, "Tiny": ckks.TinyParams,
	}
	out := map[string]*ring.Ring{}
	for name, s := range specs {
		qp := primes.GenerateNTTPrimes(s.Limbs+s.SpecialLimbs, s.LimbBits, s.LogN)
		logN := min(s.LogN, 10)
		r, err := ring.NewRing(1<<logN, qp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = r
	}
	return out
}

// edgePoly fills a polynomial with uniform residues, then writes the
// residues 0, 1 and q−1 at coefficients off, off+1 and off+2 of every
// limb.
func edgePoly(r *ring.Ring, stream uint64, off int) *ring.Poly {
	p := r.NewPoly()
	r.UniformPoly(prng.NewSource(prng.SeedFromUint64s(0x0AC1E, 0x5EED), stream), p)
	for i, m := range r.Basis.Moduli {
		copy(p.Coeffs[i][off:], []uint64{0, 1, m.Q - 1})
	}
	return p
}

// edgeOperands returns three polys whose first 27 coefficients run
// through every (x, y, z) ∈ {0, 1, q−1}³ combination. With a gather perm
// the edges of x sit at perm[j], so the kernels' x[perm[j]] still meets
// y[j] and z[j].
func edgeOperands(r *ring.Ring, stream uint64, perm []int32) (x, y, z *ring.Poly) {
	x, y, z = r.NewPoly(), r.NewPoly(), r.NewPoly()
	src := prng.NewSource(prng.SeedFromUint64s(0x0AC1E, 0x5EED), stream)
	r.UniformPoly(src, x)
	r.UniformPoly(src, y)
	r.UniformPoly(src, z)
	for i, m := range r.Basis.Moduli {
		edges := []uint64{0, 1, m.Q - 1}
		for j := 0; j < 27; j++ {
			xj := j
			if perm != nil {
				xj = int(perm[j])
			}
			x.Coeffs[i][xj] = edges[j%3]
			y.Coeffs[i][j] = edges[j/3%3]
			z.Coeffs[i][j] = edges[j/9]
		}
	}
	x.IsNTT, y.IsNTT, z.IsNTT = true, true, true
	return x, y, z
}

func requireRow(t *testing.T, what string, q uint64, got, want []uint64) {
	t.Helper()
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s q=%d: coeff %d = %d, want %d", what, q, j, got[j], want[j])
		}
	}
}

func copyRow(a []uint64) []uint64 { return append([]uint64(nil), a...) }

// TestRowKernelsMatchReference: MulCoeffs, MulScalar, MulPermAdd,
// MulAddPairRow, MulPairRow and SubMulAddRow equal their reference loops.
func TestRowKernelsMatchReference(t *testing.T) {
	for name, r := range presetRings(t) {
		perm := r.GaloisPermNTT(5)
		for _, pc := range []struct {
			name string
			perm []int32
		}{{"identity", nil}, {"permuted", perm}} {
			what := func(kernel string) string { return fmt.Sprintf("%s/%s/%s", name, pc.name, kernel) }
			a, b, acc := edgeOperands(r, 1, pc.perm)

			if pc.perm == nil {
				out := r.NewPoly()
				r.MulCoeffs(a, b, out)
				for i, m := range r.Basis.Moduli {
					want := make([]uint64, r.N)
					refMulRow(m, a.Coeffs[i], b.Coeffs[i], want)
					requireRow(t, what("MulCoeffs"), m.Q, out.Coeffs[i], want)
				}
				for _, s := range []uint64{0, 1, r.Basis.Moduli[0].Q - 1, 1<<64 - 1} {
					r.MulScalar(a, s, out)
					for i, m := range r.Basis.Moduli {
						want := make([]uint64, r.N)
						refMulScalarRow(m, s, a.Coeffs[i], want)
						requireRow(t, what(fmt.Sprintf("MulScalar(%d)", s)), m.Q, out.Coeffs[i], want)
					}
				}
			}

			got := r.CopyPoly(acc)
			r.MulPermAdd(a, pc.perm, b, got)
			for i, m := range r.Basis.Moduli {
				want := copyRow(acc.Coeffs[i])
				refMulPermAddRow(m, a.Coeffs[i], pc.perm, b.Coeffs[i], want)
				requireRow(t, what("MulPermAdd"), m.Q, got.Coeffs[i], want)
			}

			// Pair kernels: d = a, keys (b, acc), accumulators from a
			// second edge set so accumulator edges meet product edges.
			_, a0, a1 := edgeOperands(r, 2, nil)
			for i, m := range r.Basis.Moduli {
				d, k0, k1 := a.Coeffs[i], b.Coeffs[i], acc.Coeffs[i]

				g0, g1 := copyRow(a0.Coeffs[i]), copyRow(a1.Coeffs[i])
				w0, w1 := copyRow(a0.Coeffs[i]), copyRow(a1.Coeffs[i])
				r.MulAddPairRow(i, pc.perm, d, k0, k1, g0, g1)
				refMulAddPairRow(m, pc.perm, d, k0, k1, w0, w1)
				requireRow(t, what("MulAddPairRow[0]"), m.Q, g0, w0)
				requireRow(t, what("MulAddPairRow[1]"), m.Q, g1, w1)

				r.MulPairRow(i, pc.perm, d, k0, k1, g0, g1)
				refMulPairRow(m, pc.perm, d, k0, k1, w0, w1)
				requireRow(t, what("MulPairRow[0]"), m.Q, g0, w0)
				requireRow(t, what("MulPairRow[1]"), m.Q, g1, w1)
			}
		}

		// SubMulAddRow has no gather: (s − e)·inv + out over every edge
		// triple, for inverse factors at the edges and a random one.
		s, e, acc := edgeOperands(r, 3, nil)
		for i, m := range r.Basis.Moduli {
			for _, inv := range []uint64{0, 1, m.Q - 1, m.Inv(m.Q - 2)} {
				got, want := copyRow(acc.Coeffs[i]), copyRow(acc.Coeffs[i])
				r.SubMulAddRow(i, inv, s.Coeffs[i], e.Coeffs[i], got)
				refSubMulAddRow(m, inv, s.Coeffs[i], e.Coeffs[i], want)
				requireRow(t, fmt.Sprintf("%s/SubMulAddRow(inv=%d)", name, inv), m.Q, got, want)
			}
		}
	}
}

// TestTransformsMatchStrict: NTT, INTT, ForwardLimb and InverseLimb run
// the lazy-reduction butterflies; each must equal the strict
// ntt.Table.Forward/Inverse limb by limb.
func TestTransformsMatchStrict(t *testing.T) {
	for name, r := range presetRings(t) {
		for off, stream := range []uint64{10, 11} {
			p := edgePoly(r, stream, 3*off)

			fwd := r.CopyPoly(p)
			r.NTT(fwd)
			for i, tbl := range r.Tables {
				want := copyRow(p.Coeffs[i])
				tbl.Forward(want)
				requireRow(t, name+"/NTT", tbl.Mod.Q, fwd.Coeffs[i], want)

				row := copyRow(p.Coeffs[i])
				r.ForwardLimb(i, row)
				requireRow(t, name+"/ForwardLimb", tbl.Mod.Q, row, want)
			}

			// The inverse runs on the same edge-laden residues read as
			// evaluation-domain values.
			inv := r.CopyPoly(p)
			inv.IsNTT = true
			r.INTT(inv)
			for i, tbl := range r.Tables {
				want := copyRow(p.Coeffs[i])
				tbl.Inverse(want)
				requireRow(t, name+"/INTT", tbl.Mod.Q, inv.Coeffs[i], want)

				row := copyRow(p.Coeffs[i])
				r.InverseLimb(i, row)
				requireRow(t, name+"/InverseLimb", tbl.Mod.Q, row, want)
			}
		}
	}
}
