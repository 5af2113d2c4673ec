// Package ckks implements the client side of the CKKS approximate
// homomorphic encryption scheme — exactly the workload ABC-FHE
// accelerates: encoding (IFFT + Expand RNS), encryption (PRNG + NTT +
// public-key multiply-add), decryption (NTT·secret + INTT) and decoding
// (Combine CRT + FFT). See paper Fig. 2a.
//
// The implementation is from scratch on this repository's substrates
// (internal/{mod,ntt,fftfp,rns,ring,prng}) and uses the paper's
// bootstrappable parameterization: polynomial degrees 2^13–2^16 and
// 36-bit "double-scale" RNS limb chains [Agrawal et al., the paper's
// ref 1] so the hardware datapath stays at 44 bits.
//
// Server-side functionality is included so a realistic client → server →
// client flow exists end to end: keyless operations (homomorphic
// addition, plaintext multiplication, rescaling, level dropping) and the
// key-switching layer (relinearized ct×ct multiplication, hoisted Galois
// rotations, evaluation-key generation and wire formats) the public
// Server role builds on.
package ckks

import (
	"fmt"
	"sync"

	"repro/internal/fftfp"
	"repro/internal/lanes"
	"repro/internal/ntt"
	"repro/internal/primes"
	"repro/internal/ring"
	"repro/internal/rns"
)

// Parameters fixes a CKKS instance. Immutable after construction, except
// for SetWorkers (lane-engine sizing), which must happen before the
// parameters are shared across goroutines.
type Parameters struct {
	LogN     int // ring degree exponent: N = 2^LogN
	LimbBits int // bit width of each RNS prime (paper: 36)
	Limbs    int // number of RNS limbs L (paper: 24 = 12 levels double-scale)
	LogScale int // Δ = 2^LogScale
	HW       int // secret Hamming weight; 0 ⇒ uniform ternary
	MantBits int // FFT mantissa width (fftfp.FP55Mantissa on the accelerator)

	// SpecialLimbs is the length k of the special-prime chain P used by
	// hybrid key switching (also the decomposition group size α: the Q
	// chain splits into dnum = ⌈Limbs/α⌉ groups). 0 builds a client-only
	// parameter set: encryption and decryption work, key switching does
	// not.
	SpecialLimbs int

	ringQ    *ring.Ring
	levels   []*ring.Ring // levels[l-1]: cached view at level l (AtLevel rebuilds CRT tables — too hot for per-op calls)
	embedder *fftfp.Embedder

	engMu    sync.Mutex    // guards ownedEng: Close may race Close (and a late SetWorkers) during teardown
	ownedEng *lanes.Engine // non-nil when SetWorkers installed a private engine

	// Hybrid key-switching state (nil/empty when SpecialLimbs == 0).
	qPrimes  []uint64   // the Q chain (ringQ's primes)
	specials []uint64   // the P chain
	ringP    *ring.Ring // ring over P (NTT tables for the special limbs)
	pModQ    []uint64   // P mod q_i — the hybrid gadget factor per limb
	pInvModQ []uint64   // P^{-1} mod q_i — the ModDown divisor per limb

	// Lazily built, mutex-guarded hybrid caches: extended-basis ring views
	// (q_0..q_{ℓ-1}, p_0..p_{k-1} is not a prefix of any single chain, so
	// level views cannot ride rns.Basis.Sub) and the basis extenders for
	// decomposition groups and for the ModDown P→Q_ℓ conversion.
	hybridMu sync.Mutex
	qpRings  map[int]*ring.Ring       // level → QP ring view
	grpExt   map[[2]int]*rns.Extender // (level, group) → group → QP_ℓ extender
	pExt     map[int]*rns.Extender    // level → P → Q_ℓ extender
	curEng   *lanes.Engine            // engine mirrored onto lazily created views
}

// Preset parameter sets.
//
// PN16 is the paper's evaluation configuration (§V-B): N = 2^16, 36-bit
// primes, 24 limbs ("the number of levels was doubled from the standard 12
// to 24" — double-scale), encrypted at full depth, decrypted at the 2-limb
// state ciphertexts return from the server in.
var (
	PN16 = ParamSpec{LogN: 16, LimbBits: 36, Limbs: 24, LogScale: 66, HW: 192, SpecialLimbs: 4}
	PN15 = ParamSpec{LogN: 15, LimbBits: 36, Limbs: 24, LogScale: 66, HW: 192, SpecialLimbs: 4}
	PN14 = ParamSpec{LogN: 14, LimbBits: 36, Limbs: 24, LogScale: 66, HW: 192, SpecialLimbs: 4}
	PN13 = ParamSpec{LogN: 13, LimbBits: 36, Limbs: 12, LogScale: 66, HW: 128, SpecialLimbs: 3}

	// TestParams is a fast set for unit tests: small ring, short chain.
	TestParams = ParamSpec{LogN: 10, LimbBits: 36, Limbs: 4, LogScale: 30, HW: 64, SpecialLimbs: 2}
	// TinyParams is even smaller, for exhaustive-ish property tests.
	TinyParams = ParamSpec{LogN: 8, LimbBits: 30, Limbs: 3, LogScale: 25, HW: 32, SpecialLimbs: 1}
)

// ParamSpec is the serializable description from which Parameters are
// built (primes are derived deterministically from the spec).
type ParamSpec struct {
	LogN     int
	LimbBits int
	Limbs    int
	LogScale int
	HW       int
	MantBits int // 0 ⇒ full float64 mantissa
	// SpecialLimbs is the special-prime chain length k for hybrid key
	// switching (0 disables it). It is also the decomposition group size
	// α, so one byte on the wire fixes the whole hybrid geometry.
	SpecialLimbs int
}

// MaxLimbs bounds the RNS chain length Build accepts — double the
// paper's deepest (24-limb double-scale) chain, and the cap that keeps a
// hostile wire-embedded spec from demanding unbounded NTT tables.
const MaxLimbs = 48

// MaxSpecialLimbs bounds the special-prime chain. Noise control needs P
// no shorter than the largest decomposition group, and key size grows
// with k, so practical values are small; 8 bounds hostile wire specs.
const MaxSpecialLimbs = 8

// Validate range-checks the spec without allocating anything. Build calls
// it first; wire-facing constructors can call it on specs read from
// untrusted key blobs.
func (s ParamSpec) Validate() error {
	if s.LogN < 4 || s.LogN > 17 {
		return fmt.Errorf("ckks: logN=%d out of range", s.LogN)
	}
	if s.Limbs < 1 || s.Limbs > MaxLimbs {
		return fmt.Errorf("ckks: limbs=%d not in [1, %d]", s.Limbs, MaxLimbs)
	}
	// The prime generator needs logN+2 ≤ bits ≤ 61 (and the wire packer
	// ≤ 44, but word-width parameter sets are still buildable).
	if s.LimbBits < s.LogN+2 || s.LimbBits > 61 {
		return fmt.Errorf("ckks: limbBits=%d not in [logN+2, 61]", s.LimbBits)
	}
	if s.LogScale < 1 || s.LogScale >= s.LimbBits*2 {
		return fmt.Errorf("ckks: scale 2^%d outside (1, 2-limb decode modulus) (LimbBits=%d)", s.LogScale, s.LimbBits)
	}
	if s.HW < 0 || s.HW > 1<<uint(s.LogN) {
		return fmt.Errorf("ckks: hamming weight %d exceeds ring degree", s.HW)
	}
	if s.MantBits != 0 && (s.MantBits < 10 || s.MantBits > fftfp.Float64Mantissa) {
		return fmt.Errorf("ckks: mantissa width %d not in [10, %d]", s.MantBits, fftfp.Float64Mantissa)
	}
	if s.SpecialLimbs < 0 || s.SpecialLimbs > MaxSpecialLimbs {
		return fmt.Errorf("ckks: specialLimbs=%d not in [0, %d]", s.SpecialLimbs, MaxSpecialLimbs)
	}
	return nil
}

// genNTTPrimes wraps the prime generator, which panics when the
// [2^(bits-1), 2^bits) window cannot host `count` NTT primes — reachable
// for legal-looking but unsatisfiable wire specs (e.g. limbBits == logN+2
// with a long chain). The recover is scoped to exactly this call so a
// genuine invariant violation elsewhere in Build still panics loudly
// instead of masquerading as a corrupt key blob.
func genNTTPrimes(count, bitLen, logN int) (qs []uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			qs, err = nil, fmt.Errorf("ckks: build: %v", r)
		}
	}()
	return primes.GenerateNTTPrimes(count, bitLen, logN), nil
}

// Build constructs ready-to-use Parameters (prime generation, NTT tables,
// FFT tables). Cost is dominated by NTT table setup: O(L·N). Specs from
// untrusted sources are safe: out-of-range fields and unsatisfiable prime
// requests come back as errors, never panics.
func (s ParamSpec) Build() (*Parameters, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	mant := s.MantBits
	if mant == 0 {
		mant = fftfp.Float64Mantissa
	}
	p := &Parameters{
		LogN: s.LogN, LimbBits: s.LimbBits, Limbs: s.Limbs,
		LogScale: s.LogScale, HW: s.HW, MantBits: mant,
		SpecialLimbs: s.SpecialLimbs,
	}
	// One downward scan yields the Q chain followed by the P chain, so
	// adding special primes never changes the Q primes a spec without them
	// would get (ciphertext bytes are gadget-independent).
	all, err := genNTTPrimes(s.Limbs+s.SpecialLimbs, s.LimbBits, s.LogN)
	if err != nil {
		return nil, err
	}
	qs := all[:s.Limbs]
	r, err := ring.NewRing(1<<uint(s.LogN), qs)
	if err != nil {
		return nil, err
	}
	p.ringQ = r
	p.qPrimes = qs
	p.levels = make([]*ring.Ring, s.Limbs)
	for l := 1; l < s.Limbs; l++ {
		p.levels[l-1] = r.AtLevel(l)
	}
	p.levels[s.Limbs-1] = r
	p.embedder = fftfp.NewEmbedder(s.LogN)

	if s.SpecialLimbs > 0 {
		p.specials = all[s.Limbs:]
		p.ringP, err = ring.NewRing(1<<uint(s.LogN), p.specials)
		if err != nil {
			return nil, err
		}
		p.pModQ = make([]uint64, s.Limbs)
		p.pInvModQ = make([]uint64, s.Limbs)
		for i, m := range r.Basis.Moduli {
			prod := uint64(1) % m.Q
			for _, pj := range p.specials {
				prod = m.Mul(prod, pj%m.Q)
			}
			p.pModQ[i] = prod
			p.pInvModQ[i] = m.Inv(prod)
		}
	}
	return p, nil
}

// MustBuild panics on error.
func (s ParamSpec) MustBuild() *Parameters {
	p, err := s.Build()
	if err != nil {
		panic(err)
	}
	return p
}

// N returns the ring degree.
func (p *Parameters) N() int { return 1 << uint(p.LogN) }

// Slots returns the number of complex message slots (N/2).
func (p *Parameters) Slots() int { return p.N() / 2 }

// MaxLevel returns the number of limbs at full depth.
func (p *Parameters) MaxLevel() int { return p.Limbs }

// Scale returns Δ as a float64 (exact: a power of two).
func (p *Parameters) Scale() float64 {
	s := 1.0
	for i := 0; i < p.LogScale; i++ {
		s *= 2
	}
	return s
}

// Ring exposes the underlying RNS ring (shared, read-only by convention).
func (p *Parameters) Ring() *ring.Ring { return p.ringQ }

// RingAt returns the (cached) ring view at the given level (limb count).
func (p *Parameters) RingAt(level int) *ring.Ring {
	if level < 1 || level > len(p.levels) {
		panic("ckks: level out of range")
	}
	return p.levels[level-1]
}

// SetWorkers sizes the lane engine every limb-parallel kernel of this
// parameter set dispatches through — the software mirror of the paper's
// PNL-lane count (Fig. 5b sweeps it in hardware). n <= 0 selects
// GOMAXPROCS; n = 1 forces the serial path. Call before sharing the
// parameters across goroutines. A previously installed private engine is
// released.
func (p *Parameters) SetWorkers(n int) {
	p.engMu.Lock()
	if p.ownedEng != nil {
		p.ownedEng.Close()
	}
	p.ownedEng = lanes.New(n)
	e := p.ownedEng
	p.engMu.Unlock()
	p.setEngineAll(e)
}

// setEngineAll installs e on the full ring, every cached level view, the
// special-prime ring, and any extended-basis views built so far (views
// built later inherit it through curEng).
func (p *Parameters) setEngineAll(e *lanes.Engine) {
	for _, rl := range p.levels {
		rl.SetEngine(e)
	}
	if p.ringP != nil {
		p.ringP.SetEngine(e)
	}
	p.hybridMu.Lock()
	p.curEng = e
	for _, r := range p.qpRings {
		r.SetEngine(e)
	}
	p.hybridMu.Unlock()
}

// Workers reports the current lane count.
func (p *Parameters) Workers() int { return p.ringQ.Engine().Workers() }

// Close releases any private lane engine installed by SetWorkers. Safe to
// call on parameters that never configured one, to call more than once,
// and to call from multiple goroutines at once — the serving layer's
// teardown reaches a party's Close from both the drain path and deferred
// cleanup, and a double Close must be a no-op, never a double channel
// close.
func (p *Parameters) Close() {
	p.engMu.Lock()
	e := p.ownedEng
	p.ownedEng = nil
	p.engMu.Unlock()
	if e != nil {
		e.Close()
		p.setEngineAll(nil)
	}
}

// ---------------------------------------------------------------------
// Hybrid key-switching geometry (special primes P, extended-basis views)
// ---------------------------------------------------------------------

// Alpha returns the decomposition group size of the hybrid gadget (the
// special-prime count); 0 when the parameter set carries no special
// primes.
func (p *Parameters) Alpha() int { return p.SpecialLimbs }

// DnumAt returns the number of decomposition groups a level-`level`
// ciphertext splits into: ⌈level/α⌉.
func (p *Parameters) DnumAt(level int) int {
	if p.SpecialLimbs == 0 {
		panic("ckks: hybrid geometry on parameters without special primes")
	}
	return (level + p.SpecialLimbs - 1) / p.SpecialLimbs
}

// SpecialPrimes returns the P chain (nil when SpecialLimbs == 0).
func (p *Parameters) SpecialPrimes() []uint64 { return p.specials }

// RingP returns the ring over the special primes.
func (p *Parameters) RingP() *ring.Ring {
	if p.ringP == nil {
		panic("ckks: RingP on parameters without special primes")
	}
	return p.ringP
}

// RingQPAt returns the (cached) extended-basis ring over q_0..q_{level-1},
// p_0..p_{k-1} — the basis hybrid switching keys and hoisted digits live
// in. The view shares the Q and P NTT tables (no table rebuild); only the
// per-view RNS constants are constructed, once, under the lock.
func (p *Parameters) RingQPAt(level int) *ring.Ring {
	if p.SpecialLimbs == 0 {
		panic("ckks: RingQPAt on parameters without special primes")
	}
	if level < 1 || level > p.Limbs {
		panic("ckks: level out of range")
	}
	p.hybridMu.Lock()
	defer p.hybridMu.Unlock()
	if r, ok := p.qpRings[level]; ok {
		return r
	}
	primes := make([]uint64, 0, level+p.SpecialLimbs)
	primes = append(primes, p.qPrimes[:level]...)
	primes = append(primes, p.specials...)
	tables := append(append([]*ntt.Table(nil), p.ringQ.Tables[:level]...), p.ringP.Tables...)
	r := &ring.Ring{N: p.N(), LogN: p.LogN, Basis: rns.MustBasis(primes), Tables: tables}
	r.SetEngine(p.curEng)
	if p.qpRings == nil {
		p.qpRings = make(map[int]*ring.Ring)
	}
	p.qpRings[level] = r
	return r
}

// groupRange returns the limb span [lo, hi) of decomposition group j at
// the given level (the last group may be short).
func (p *Parameters) groupRange(level, j int) (int, int) {
	lo := j * p.SpecialLimbs
	hi := lo + p.SpecialLimbs
	if hi > level {
		hi = level
	}
	return lo, hi
}

// groupExtender returns (building and caching on first use) the basis
// extender from decomposition group j's primes to the full QP_ℓ basis.
func (p *Parameters) groupExtender(level, j int) *rns.Extender {
	p.hybridMu.Lock()
	defer p.hybridMu.Unlock()
	key := [2]int{level, j}
	if e, ok := p.grpExt[key]; ok {
		return e
	}
	lo, hi := p.groupRange(level, j)
	dst := make([]uint64, 0, level+p.SpecialLimbs)
	dst = append(dst, p.qPrimes[:level]...)
	dst = append(dst, p.specials...)
	e := rns.MustExtender(p.qPrimes[lo:hi], dst)
	if p.grpExt == nil {
		p.grpExt = make(map[[2]int]*rns.Extender)
	}
	p.grpExt[key] = e
	return e
}

// modDownExtender returns the P → Q_ℓ extender ModDown uses.
func (p *Parameters) modDownExtender(level int) *rns.Extender {
	p.hybridMu.Lock()
	defer p.hybridMu.Unlock()
	if e, ok := p.pExt[level]; ok {
		return e
	}
	e := rns.MustExtender(p.specials, p.qPrimes[:level])
	if p.pExt == nil {
		p.pExt = make(map[int]*rns.Extender)
	}
	p.pExt[level] = e
	return e
}

// Embedder exposes the canonical-embedding FFT tables.
func (p *Parameters) Embedder() *fftfp.Embedder { return p.embedder }

// FFTCtx returns the floating-point context encoding/decoding runs in.
func (p *Parameters) FFTCtx() fftfp.Ctx { return fftfp.NewCtx(p.MantBits) }
