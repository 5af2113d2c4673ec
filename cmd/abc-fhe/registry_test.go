package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	abcfhe "repro"
	"repro/internal/serve"
)

// evalFixture is one Test-preset deployment on files: a key blob that
// covers every registry op, two fresh ciphertexts and a compressed
// upload, plus a direct in-process server over the same blob.
type evalFixture struct {
	dir     string
	evkPath string
	evkBlob []byte
	srv     *abcfhe.Server
	evk     *abcfhe.EvaluationKeys
	x, y    *abcfhe.Ciphertext
	files   map[string][]byte // input file contents by file name
}

func newEvalFixture(t *testing.T) *evalFixture {
	t.Helper()
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	f := &evalFixture{dir: dir, evkPath: p("evk.bin"), files: map[string][]byte{}}

	if err := runKeygen([]string{"-preset", "Test", "-seed-lo", "21", "-seed-hi", "22",
		"-pk", p("pk.key"), "-sk", p("sk.key")}); err != nil {
		t.Fatal("keygen:", err)
	}
	// Rotation 3 (rotate), 1 and 2 (innersum span 4, dot) and the DFT
	// ladder plus conjugation key (c2s, s2c, conjugate).
	if err := runEvalKeys([]string{"-sk", p("sk.key"), "-out", f.evkPath,
		"-rotations", "1,2,3", "-dft-levels", "1"}); err != nil {
		t.Fatal("evalkeys:", err)
	}
	for i, msg := range []string{"0.5\n-0.25 0.125\n0.0625 -0.5\n", "0.25\n0.5\n-0.75 0.25\n"} {
		name := fmt.Sprintf("m%d", i)
		if err := os.WriteFile(p(name+".txt"), []byte(msg), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := runEncrypt([]string{"-pk", p("pk.key"), "-in", p(name + ".txt"), "-out", p(name + ".bin"),
			"-seed-lo", fmt.Sprint(31 + i), "-seed-hi", "32"}); err != nil {
			t.Fatal("encrypt:", err)
		}
	}

	var err error
	if f.evkBlob, err = os.ReadFile(f.evkPath); err != nil {
		t.Fatal(err)
	}
	if f.srv, f.evk, err = abcfhe.NewServerFromEvaluationKeys(f.evkBlob); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.srv.Close)
	f.x = f.load(t, "m0.bin")
	f.y = f.load(t, "m1.bin")

	sk, err := os.ReadFile(p("sk.key"))
	if err != nil {
		t.Fatal(err)
	}
	owner, err := abcfhe.NewKeyOwnerFromSecretKey(sk)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	upload, err := owner.EncodeEncryptCompressed([]complex128{0.5, complex(-0.25, 0.125)})
	if err != nil {
		t.Fatal(err)
	}
	f.write(t, "upload.bin", upload)
	return f
}

func (f *evalFixture) path(name string) string { return filepath.Join(f.dir, name) }

func (f *evalFixture) write(t *testing.T, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(f.path(name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	f.files[name] = data
}

func (f *evalFixture) load(t *testing.T, name string) *abcfhe.Ciphertext {
	t.Helper()
	data, err := os.ReadFile(f.path(name))
	if err != nil {
		t.Fatal(err)
	}
	f.files[name] = data
	ct, err := f.srv.DeserializeCiphertext(data)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func (f *evalFixture) serialize(t *testing.T, cts ...*abcfhe.Ciphertext) [][]byte {
	t.Helper()
	out := make([][]byte, len(cts))
	for i, ct := range cts {
		var err error
		if out[i], err = f.srv.SerializeCiphertext(ct); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// rescaled applies Rescale n times to every ciphertext.
func (f *evalFixture) rescaled(t *testing.T, n int, cts ...*abcfhe.Ciphertext) []*abcfhe.Ciphertext {
	t.Helper()
	for i := range cts {
		for r := 0; r < n; r++ {
			var err error
			if cts[i], err = f.srv.Rescale(cts[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cts
}

// TestEvalFrontEndParity runs every registry op three ways on the same
// inputs and keys — `abc-fhe eval` on files, POST /v1/eval/{op}, and
// the direct Server call — and requires identical bytes. It iterates
// the registry, so an op without a case here fails the test.
func TestEvalFrontEndParity(t *testing.T) {
	f := newEvalFixture(t)
	must := func(ct *abcfhe.Ciphertext, err error) *abcfhe.Ciphertext {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	f.write(t, "w.txt", []byte("0.25\n0.5 -0.125\n-1 0.75\n"))
	f.write(t, "p.txt", []byte("0.125\n0.5\n"))
	dft, err := f.srv.NewHomomorphicDFT(abcfhe.HomomorphicDFTConfig{StartLevel: f.x.Level, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	re, im, err := f.srv.CoeffsToSlots(f.x, dft, f.evk)
	if err != nil {
		t.Fatal(err)
	}
	reIm := f.serialize(t, re, im)
	f.write(t, "re.bin", reIm[0])
	f.write(t, "im.bin", reIm[1])
	pe, err := f.srv.NewPolyEval([]complex128{0.125, 0.5}, -1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	em, err := f.srv.NewEvalMod(abcfhe.EvalModConfig{Degree: 1, Range: 8})
	if err != nil {
		t.Fatal(err)
	}
	x2 := must(f.srv.DropLevel(f.x, 2))

	// Each case names its input files by registry input name, its
	// parameters by registry parameter name, and the direct result.
	cases := map[string]struct {
		files  map[string]string
		params map[string]string
		want   []*abcfhe.Ciphertext
	}{
		"mul": {map[string]string{"a": "m0.bin", "b": "m1.bin"}, map[string]string{"rescale": "1"},
			f.rescaled(t, 1, must(f.srv.Mul(f.x, f.y, f.evk)))},
		"rotate": {map[string]string{"a": "m0.bin"}, map[string]string{"by": "3", "drop-level": "2"},
			[]*abcfhe.Ciphertext{must(f.srv.Rotate(x2, 3, f.evk))}},
		"conjugate": {map[string]string{"a": "m1.bin"}, nil,
			[]*abcfhe.Ciphertext{must(f.srv.Conjugate(f.y, f.evk))}},
		"innersum": {map[string]string{"a": "m0.bin"}, map[string]string{"span": "4"},
			[]*abcfhe.Ciphertext{must(f.srv.InnerSum(f.x, 4, f.evk))}},
		"dot": {map[string]string{"a": "m0.bin", "weights": "w.txt"}, nil,
			[]*abcfhe.Ciphertext{must(f.srv.DotPlain(f.x, []complex128{0.25, complex(0.5, -0.125), complex(-1, 0.75)}, f.evk))}},
		"c2s": {map[string]string{"a": "m0.bin"}, map[string]string{"dft-levels": "1", "rescale": "1"},
			f.rescaled(t, 1, re, im)},
		"s2c": {map[string]string{"a": "re.bin", "b": "im.bin"}, map[string]string{"dft-levels": "1"},
			[]*abcfhe.Ciphertext{must(f.srv.SlotsToCoeffs(re, im, dft, f.evk))}},
		"evalpoly": {map[string]string{"a": "m0.bin", "coeffs": "p.txt"}, map[string]string{"lo": "-1", "hi": "1"},
			[]*abcfhe.Ciphertext{must(f.srv.EvalPoly(f.x, pe, f.evk))}},
		"evalmod": {map[string]string{"a": "m1.bin"}, map[string]string{"degree": "1", "range": "8"},
			[]*abcfhe.Ciphertext{must(f.srv.EvalMod(f.y, em, f.evk))}},
		"expand": {map[string]string{"a": "upload.bin"}, nil,
			[]*abcfhe.Ciphertext{must(f.srv.ExpandCompressedUpload(f.files["upload.bin"]))}},
	}

	svc, err := serve.New(serve.Config{CacheBytes: 4 * int64(len(f.evkBlob)), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer svc.Close()
	defer ts.Close()
	session := registerSession(t, ts.URL, f.evkBlob)

	for _, name := range serve.OpNames() {
		tc, ok := cases[name]
		if !ok {
			t.Errorf("registry op %s has no parity case", name)
			continue
		}
		delete(cases, name)
		op, err := serve.LookupOp(name)
		if err != nil {
			t.Fatal(err)
		}
		want := f.serialize(t, tc.want...)

		cli := []string{"-evk", f.evkPath, "-op", name}
		query := "?session=" + session
		var frames [][]byte
		for _, in := range op.Inputs {
			file, ok := tc.files[in.Name]
			if !ok {
				t.Fatalf("%s: no file for input %s", name, in.Name)
			}
			cli = append(cli, "-"+in.Name, f.path(file))
			frames = append(frames, f.files[file])
		}
		for k, v := range tc.params {
			cli = append(cli, "-"+k, v)
			query += "&" + k + "=" + v
		}
		outs := []string{f.path(name + ".out"), f.path(name + ".out2")}
		cli = append(cli, "-out", outs[0], "-out2", outs[1])
		if err := runEval(cli); err != nil {
			t.Fatalf("%s: abc-fhe eval: %v", name, err)
		}
		got := postEval(t, ts.URL+"/v1/eval/"+name+query, frames)
		if len(got) != len(want) {
			t.Fatalf("%s: serve returned %d parts, direct call %d", name, len(got), len(want))
		}
		for i := range want {
			fromCLI, err := os.ReadFile(outs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fromCLI, want[i]) {
				t.Errorf("%s: CLI output %d differs from the direct Server call", name, i)
			}
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: serve output %d differs from the direct Server call", name, i)
			}
		}
	}
	for name := range cases {
		t.Errorf("parity case %s names no registry op", name)
	}
}

// TestCLIC2SRescalesBothHalves: `eval -op c2s -rescale n` rescales the
// real and the imaginary half alike, so the pair stays a valid s2c input.
func TestCLIC2SRescalesBothHalves(t *testing.T) {
	f := newEvalFixture(t)
	if err := runEval([]string{"-evk", f.evkPath, "-op", "c2s", "-rescale", "1", "-a", f.path("m0.bin"),
		"-out", f.path("re.bin"), "-out2", f.path("im.bin")}); err != nil {
		t.Fatal("eval c2s:", err)
	}
	re, im := f.load(t, "re.bin"), f.load(t, "im.bin")
	if re.Level != im.Level {
		t.Fatalf("c2s -rescale 1: real half at level %d, imaginary half at %d", re.Level, im.Level)
	}
	dft, err := f.srv.NewHomomorphicDFT(abcfhe.HomomorphicDFTConfig{StartLevel: f.x.Level, Levels: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantRe, wantIm, err := f.srv.CoeffsToSlots(f.x, dft, f.evk)
	if err != nil {
		t.Fatal(err)
	}
	want := f.serialize(t, f.rescaled(t, 1, wantRe, wantIm)...)
	if !bytes.Equal(f.files["re.bin"], want[0]) || !bytes.Equal(f.files["im.bin"], want[1]) {
		t.Fatal("c2s -rescale 1 halves differ from Rescale of the direct CoeffsToSlots halves")
	}
	if err := runEval([]string{"-evk", f.evkPath, "-op", "s2c", "-a", f.path("re.bin"), "-b", f.path("im.bin"),
		"-out", f.path("back.bin")}); err != nil {
		t.Fatal("eval s2c on the rescaled pair:", err)
	}
}

// TestCLIEvalRejectsUndeclared: a flag the op does not declare is an
// error, as an undeclared query key is for serve.
func TestCLIEvalRejectsUndeclared(t *testing.T) {
	f := newEvalFixture(t)
	for _, args := range [][]string{
		{"-op", "rotate", "-a", f.path("m0.bin"), "-span", "4"},
		{"-op", "rotate", "-a", f.path("m0.bin"), "-b", f.path("m1.bin")},
		{"-op", "expand", "-a", f.path("upload.bin"), "-drop-level", "2"},
		{"-op", "mul", "-a", f.path("m0.bin")},
		{"-op", "frobnicate", "-a", f.path("m0.bin")},
	} {
		err := runEval(append([]string{"-evk", f.evkPath, "-out", f.path("x.bin")}, args...))
		if err == nil {
			t.Errorf("eval %s: want an error", strings.Join(args, " "))
		}
	}
}

func registerSession(t *testing.T, base string, blob []byte) string {
	t.Helper()
	resp, err := http.Post(base+"/v1/sessions", "application/octet-stream", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: HTTP %d: %s", resp.StatusCode, body)
	}
	var sr struct{ Session string }
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	return sr.Session
}

func postEval(t *testing.T, url string, frames [][]byte) [][]byte {
	t.Helper()
	resp, err := http.Post(url, serve.ContentTypeFrames, bytes.NewReader(serve.EncodeFrames(frames...)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	parts, err := serve.ReadFrames(resp.Body, 4, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}
