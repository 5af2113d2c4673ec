package serve

import (
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"

	abcfhe "repro"
	"repro/internal/ckks"
)

// specServer is the shared evaluation engine for one parameter set: all
// sessions whose key blobs embed the same ParamSpec evaluate on one
// abcfhe.Server (stateless per-op, race-audited in
// server_concurrency_test.go) and share its pre-encoded DFT pipelines.
type specServer struct {
	srv     *abcfhe.Server
	spec    ckks.ParamSpec
	maxPart int64 // per-frame byte cap: a full-depth ciphertext + slack

	dftMu sync.Mutex
	dfts  map[dftKey]*abcfhe.HomomorphicDFT
}

type dftKey struct{ start, levels int }

func newSpecServer(srv *abcfhe.Server, spec ckks.ParamSpec) (*specServer, error) {
	ctMax, err := srv.CiphertextWireBytes(srv.MaxLevel())
	if err != nil {
		return nil, err
	}
	maxPart := int64(ctMax) + 64
	if maxPart < 1<<20 { // dot's plaintext weight vector travels as text
		maxPart = 1 << 20
	}
	return &specServer{srv: srv, spec: spec, maxPart: maxPart}, nil
}

// importKeys is the cache's loadFunc: re-decode a spooled blob on this
// spec's server.
func (sp *specServer) importKeys(blob []byte) (*abcfhe.EvaluationKeys, error) {
	return sp.srv.ImportEvaluationKeys(blob)
}

// dft returns the memoized CoeffsToSlots/SlotsToCoeffs pipeline for a
// (start level, butterfly levels) schedule; building one pre-encodes
// 2·levels linear transforms, so it is far too expensive per-request.
func (sp *specServer) dft(start, levels int) (*abcfhe.HomomorphicDFT, error) {
	sp.dftMu.Lock()
	defer sp.dftMu.Unlock()
	k := dftKey{start, levels}
	if d, ok := sp.dfts[k]; ok {
		return d, nil
	}
	d, err := sp.srv.NewHomomorphicDFT(abcfhe.HomomorphicDFTConfig{StartLevel: start, Levels: levels})
	if err != nil {
		return nil, err
	}
	if sp.dfts == nil {
		sp.dfts = make(map[dftKey]*abcfhe.HomomorphicDFT)
	}
	sp.dfts[k] = d
	return d, nil
}

// dftAtMid finds the schedule whose midpoint sits at the given level —
// the SlotsToCoeffs entry point, recovered from its inputs. MidLevel
// falls monotonically as StartLevel does, so at most a couple of
// candidates are built (then memoized).
func (sp *specServer) dftAtMid(mid, levels int) (*abcfhe.HomomorphicDFT, error) {
	for start := mid + levels; start <= sp.srv.MaxLevel(); start++ {
		d, err := sp.dft(start, levels)
		if err != nil {
			continue // start too shallow for this schedule; keep climbing
		}
		if d.MidLevel() == mid {
			return d, nil
		}
		if d.MidLevel() > mid {
			break
		}
	}
	return nil, fmt.Errorf("%w: no %d-level DFT has its midpoint at level %d",
		abcfhe.ErrLevelOutOfRange, levels, mid)
}

// ---------------------------------------------------------------------
// The op registry
// ---------------------------------------------------------------------

// InputKind is how an op decodes one of its input parts.
type InputKind int

const (
	// Ciphertext is a serialized ciphertext; drop-level applies to it.
	Ciphertext InputKind = iota
	// Values is a text value list in the ParseComplexLines format.
	Values
	// Upload is a compressed (seeded) upload, expanded at run time.
	Upload
)

func (k InputKind) String() string {
	return [...]string{"ciphertext", "value list", "compressed upload"}[k]
}

// Input is one named input part of an op. Serve takes the inputs as
// request frames in declaration order; `abc-fhe eval` reads each from
// the file its -<Name> flag gives.
type Input struct {
	Name string
	Kind InputKind
}

// Param is one scalar op parameter. Serve reads it from the query key
// Name, `abc-fhe eval` from the flag -Name. Default is an int or a
// float64, which also fixes how a value parses.
type Param struct {
	Name    string
	Default any
	Help    string
}

// params declares every op parameter, each once.
var params = []Param{
	{"drop-level", 0, "DropLevel every ciphertext input to this level first (0 = keep)"},
	{"rescale", 0, "Rescale every output n times (a mul consumes 1, or 2 on double-scale presets)"},
	{"by", 0, "rotation step"},
	{"span", 0, "inner-sum span, a power of two"},
	{"dft-levels", 1, "butterfly groups per direction; match evalkeys -dft-levels"},
	{"lo", -1.0, "approximation interval lower bound"},
	{"hi", 1.0, "approximation interval upper bound"},
	{"level", 0, "input level the polynomial is compiled at (0 = minimum feasible)"},
	{"degree", 0, "sine-surrogate Taylor degree (0 = 15)"},
	{"range", 0.0, "sine-surrogate modulus analogue (0 = 8)"},
	{"scaling", 0.0, "sine-surrogate output multiplier (0 = range/2π)"},
}

// Params lists every op parameter in declaration order.
func Params() []Param { return params }

// Op is one registry entry: an evaluation op with its inputs and
// parameters, served as POST /v1/eval/{Name} and run by
// `abc-fhe eval -op Name`.
type Op struct {
	Name   string
	Inputs []Input
	// Params names every parameter the op reads: its own, then the
	// shared drop-level (when it takes a ciphertext) and rescale.
	Params []string

	keyless bool
	// compile turns decoded inputs and parameters into the key-gated
	// computation. It runs before the request is queued, so misuse it
	// can detect fails without taking queue space.
	compile func(sp *specServer, in operands, a args) (evalFunc, error)
}

// evalFunc runs a compiled op against an evaluation-key set.
type evalFunc func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error)

// operands are an op's decoded inputs, grouped by kind in declaration
// order.
type operands struct {
	cts  []*abcfhe.Ciphertext
	vals []complex128
	blob []byte
}

// args are an op's parsed parameters, defaults filled in.
type args map[string]any

func (a args) int(name string) int       { v, _ := a[name].(int); return v }
func (a args) float(name string) float64 { v, _ := a[name].(float64); return v }

func cts(names ...string) (ins []Input) {
	for _, n := range names {
		ins = append(ins, Input{n, Ciphertext})
	}
	return ins
}

func one(ct *abcfhe.Ciphertext, err error) ([]*abcfhe.Ciphertext, error) {
	if err != nil {
		return nil, err
	}
	return []*abcfhe.Ciphertext{ct}, nil
}

// opTable is the evaluation surface: every op, declared once.
var opTable = map[string]*Op{
	"mul": {Inputs: cts("a", "b"),
		compile: func(sp *specServer, in operands, _ args) (evalFunc, error) {
			return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				return one(sp.srv.Mul(in.cts[0], in.cts[1], evk))
			}, nil
		}},
	"rotate": {Inputs: cts("a"), Params: []string{"by"},
		compile: func(sp *specServer, in operands, a args) (evalFunc, error) {
			return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				return one(sp.srv.Rotate(in.cts[0], a.int("by"), evk))
			}, nil
		}},
	"conjugate": {Inputs: cts("a"),
		compile: func(sp *specServer, in operands, _ args) (evalFunc, error) {
			return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				return one(sp.srv.Conjugate(in.cts[0], evk))
			}, nil
		}},
	"innersum": {Inputs: cts("a"), Params: []string{"span"},
		compile: func(sp *specServer, in operands, a args) (evalFunc, error) {
			return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				return one(sp.srv.InnerSum(in.cts[0], a.int("span"), evk))
			}, nil
		}},
	"dot": {Inputs: []Input{{"a", Ciphertext}, {"weights", Values}},
		compile: func(sp *specServer, in operands, _ args) (evalFunc, error) {
			return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				return one(sp.srv.DotPlain(in.cts[0], in.vals, evk))
			}, nil
		}},
	// c2s emits the real and imaginary coefficient halves as two parts.
	"c2s": {Inputs: cts("a"), Params: []string{"dft-levels"},
		compile: func(sp *specServer, in operands, a args) (evalFunc, error) {
			dft, err := sp.dft(in.cts[0].Level, a.int("dft-levels"))
			if err != nil {
				return nil, err
			}
			return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				re, im, err := sp.srv.CoeffsToSlots(in.cts[0], dft, evk)
				if err != nil {
					return nil, err
				}
				return []*abcfhe.Ciphertext{re, im}, nil
			}, nil
		}},
	"s2c": {Inputs: cts("a", "b"), Params: []string{"dft-levels"},
		compile: func(sp *specServer, in operands, a args) (evalFunc, error) {
			dft, err := sp.dftAtMid(in.cts[0].Level, a.int("dft-levels"))
			if err != nil {
				return nil, err
			}
			return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				return one(sp.srv.SlotsToCoeffs(in.cts[0], in.cts[1], dft, evk))
			}, nil
		}},
	"evalpoly": {Inputs: []Input{{"a", Ciphertext}, {"coeffs", Values}}, Params: []string{"lo", "hi", "level"},
		compile: func(sp *specServer, in operands, a args) (evalFunc, error) {
			// Plain coefficient arithmetic (no keys, no NTT): cheap
			// enough per request, and every misuse surfaces here.
			pe, err := sp.srv.NewPolyEval(in.vals, a.float("lo"), a.float("hi"), a.int("level"))
			if err != nil {
				return nil, err
			}
			return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				return one(sp.srv.EvalPoly(in.cts[0], pe, evk))
			}, nil
		}},
	"evalmod": {Inputs: cts("a"), Params: []string{"degree", "range", "scaling", "level"},
		compile: func(sp *specServer, in operands, a args) (evalFunc, error) {
			em, err := sp.srv.NewEvalMod(abcfhe.EvalModConfig{Degree: a.int("degree"),
				Range: a.float("range"), Scaling: a.float("scaling"), Level: a.int("level")})
			if err != nil {
				return nil, err
			}
			return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				return one(sp.srv.EvalMod(in.cts[0], em, evk))
			}, nil
		}},
	"expand": {Inputs: []Input{{"a", Upload}}, keyless: true,
		compile: func(sp *specServer, in operands, _ args) (evalFunc, error) {
			return func(*abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
				return one(sp.srv.ExpandCompressedUpload(in.blob))
			}, nil
		}},
}

func init() {
	for name, op := range opTable {
		op.Name = name
		if slices.ContainsFunc(op.Inputs, func(in Input) bool { return in.Kind == Ciphertext }) {
			op.Params = append(op.Params, "drop-level")
		}
		op.Params = append(op.Params, "rescale")
	}
}

// OpNames lists the registry's ops, sorted.
func OpNames() []string {
	names := make([]string, 0, len(opTable))
	for name := range opTable {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// LookupOp returns the registry entry for name.
func LookupOp(name string) (*Op, error) {
	op, ok := opTable[name]
	if !ok {
		return nil, fmt.Errorf("%w: unknown op %q (%s)",
			abcfhe.ErrMalformedWire, name, strings.Join(OpNames(), ", "))
	}
	return op, nil
}

// Eval runs the op once on srv with keys evk: q holds its parameters,
// parts its inputs in declaration order. Every output is rescaled as
// the rescale parameter asks.
func (op *Op) Eval(srv *abcfhe.Server, evk *abcfhe.EvaluationKeys, q url.Values, parts [][]byte) ([]*abcfhe.Ciphertext, error) {
	run, err := op.prepare(&specServer{srv: srv}, q, parts)
	if err != nil {
		return nil, err
	}
	return run(evk)
}

// build is prepare for the service: the returned runFunc serializes
// the outputs as response parts.
func (op *Op) build(sp *specServer, q url.Values, parts [][]byte) (runFunc, error) {
	run, err := op.prepare(sp, q, parts)
	if err != nil {
		return nil, err
	}
	return func(evk *abcfhe.EvaluationKeys) ([][]byte, error) {
		out, err := run(evk)
		if err != nil {
			return nil, err
		}
		data := make([][]byte, len(out))
		for i, ct := range out {
			if data[i], err = sp.srv.SerializeCiphertext(ct); err != nil {
				return nil, err
			}
		}
		return data, nil
	}, nil
}

// prepare parses the parameters, decodes the inputs (dropping every
// ciphertext to drop-level) and compiles the op; the returned evalFunc
// rescales every output part.
func (op *Op) prepare(sp *specServer, q url.Values, parts [][]byte) (evalFunc, error) {
	a, err := op.parseArgs(q)
	if err != nil {
		return nil, err
	}
	if len(parts) != len(op.Inputs) {
		return nil, fmt.Errorf("%w: op %s wants %d input parts, got %d",
			abcfhe.ErrMalformedWire, op.Name, len(op.Inputs), len(parts))
	}
	rescale, drop := a.int("rescale"), a.int("drop-level")
	if rescale < 0 || rescale > sp.srv.MaxLevel() {
		return nil, fmt.Errorf("%w: rescale=%d out of range", abcfhe.ErrLevelOutOfRange, rescale)
	}
	var in operands
	for i, input := range op.Inputs {
		switch input.Kind {
		case Ciphertext:
			ct, err := sp.srv.DeserializeCiphertext(parts[i])
			if err == nil && drop != 0 {
				ct, err = sp.srv.DropLevel(ct, drop)
			}
			if err != nil {
				return nil, fmt.Errorf("input %s: %w", input.Name, err)
			}
			in.cts = append(in.cts, ct)
		case Values:
			if in.vals, err = ParseComplexLines(parts[i]); err != nil {
				return nil, fmt.Errorf("input %s: %w", input.Name, err)
			}
		case Upload:
			in.blob = parts[i]
		}
	}
	run, err := op.compile(sp, in, a)
	if err != nil {
		return nil, err
	}
	return func(evk *abcfhe.EvaluationKeys) ([]*abcfhe.Ciphertext, error) {
		out, err := run(evk)
		if err != nil {
			return nil, err
		}
		for i := range out {
			for r := 0; r < rescale; r++ {
				if out[i], err = sp.srv.Rescale(out[i]); err != nil {
					return nil, err
				}
			}
		}
		return out, nil
	}, nil
}

// parseArgs reads the op's parameters from q, filling in defaults. A
// key the op does not declare is an error, never silently ignored.
func (op *Op) parseArgs(q url.Values) (args, error) {
	for k := range q {
		if !slices.Contains(op.Params, k) {
			return nil, fmt.Errorf("%w: op %s takes no parameter %q (it takes: %s)",
				abcfhe.ErrMalformedWire, op.Name, k, strings.Join(op.Params, ", "))
		}
	}
	a := args{}
	for _, p := range params {
		if !slices.Contains(op.Params, p.Name) {
			continue
		}
		a[p.Name] = p.Default
		s := q.Get(p.Name)
		if s == "" {
			continue
		}
		var err error
		switch p.Default.(type) {
		case int:
			a[p.Name], err = strconv.Atoi(s)
		case float64:
			a[p.Name], err = strconv.ParseFloat(s, 64)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: parameter %s=%q: %v", abcfhe.ErrInvalidConstant, p.Name, s, err)
		}
	}
	return a, nil
}
