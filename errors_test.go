package abcfhe

// Every public-API misuse path must return a typed error (errors.Is
// against the sentinels in errors.go) — never panic. These tests walk the
// acceptance list: bad lengths, wrong levels, malformed bytes, unknown
// presets, structural ciphertext damage.

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestUnknownPresetErrors(t *testing.T) {
	if _, err := NewKeyOwner(Preset("bogus"), 1, 2); !errors.Is(err, ErrUnknownPreset) {
		t.Fatalf("NewKeyOwner: %v", err)
	}
	if _, err := NewServer(Preset("bogus")); !errors.Is(err, ErrUnknownPreset) {
		t.Fatalf("NewServer: %v", err)
	}
}

func TestMalformedKeyBytes(t *testing.T) {
	owner, device, _ := threeParties(t, Test, 1, 2)
	pkBytes, _ := owner.ExportPublicKey()
	skBytes, _ := owner.ExportSecretKey()
	_ = device

	// Payload byte 10 sits entirely in bits 36..43 of packed word 1 —
	// always zero for 36-bit residues in 44-bit words — so flipping it is
	// guaranteed to push a residue past its modulus. The public blob's
	// payload starts after the 14-byte key header, the secret blob's after
	// header + 16-byte seed.
	cases := map[string][]byte{
		"empty":       nil,
		"garbage":     []byte("not a key at all"),
		"truncated":   pkBytes[:len(pkBytes)/2],
		"bad magic":   append([]byte("XXXX"), pkBytes[4:]...),
		"bit flipped": flipByte(pkBytes, 14+10),
	}
	for name, data := range cases {
		if _, err := NewEncryptor(data, 1, 2); !errors.Is(err, ErrMalformedWire) {
			t.Errorf("NewEncryptor(%s): %v", name, err)
		}
	}
	// Wrong kind both ways.
	if _, err := NewEncryptor(skBytes, 1, 2); !errors.Is(err, ErrMalformedWire) {
		t.Errorf("NewEncryptor(secret blob): %v", err)
	}
	if _, err := NewKeyOwnerFromSecretKey(pkBytes); !errors.Is(err, ErrMalformedWire) {
		t.Errorf("NewKeyOwnerFromSecretKey(public blob): %v", err)
	}
	if _, err := NewKeyOwnerFromSecretKey(flipByte(skBytes, 14+16+10)); !errors.Is(err, ErrMalformedWire) {
		t.Errorf("NewKeyOwnerFromSecretKey(bit flipped): %v", err)
	}
}

func flipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0xFF
	return out
}

func TestMessageTooLongErrors(t *testing.T) {
	owner, device, _ := threeParties(t, Test, 3, 4)
	long := make([]complex128, device.Slots()+1)

	if _, err := device.EncodeEncrypt(long); !errors.Is(err, ErrMessageTooLong) {
		t.Errorf("EncodeEncrypt: %v", err)
	}
	if _, err := device.Encode(long); !errors.Is(err, ErrMessageTooLong) {
		t.Errorf("Encode: %v", err)
	}
	if _, err := device.EncodeEncryptBatch([][]complex128{{0.5}, long}); !errors.Is(err, ErrMessageTooLong) {
		t.Errorf("EncodeEncryptBatch: %v", err)
	}
	if _, err := owner.EncodeEncryptCompressed(long); !errors.Is(err, ErrMessageTooLong) {
		t.Errorf("EncodeEncryptCompressed: %v", err)
	}
}

func TestInvalidCiphertextErrors(t *testing.T) {
	owner, device, server := threeParties(t, Test, 5, 6)
	msg := testMsgs(device.Slots(), 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := owner.DecryptDecode(nil); !errors.Is(err, ErrInvalidCiphertext) {
		t.Errorf("nil ciphertext: %v", err)
	}
	bad := *ct
	bad.Level = owner.MaxLevel() + 7
	if _, err := owner.DecryptDecode(&bad); !errors.Is(err, ErrLevelOutOfRange) {
		t.Errorf("level out of range: %v", err)
	}
	bad = *ct
	bad.Level = 2 // limb count (full depth) no longer matches the level
	if _, err := owner.DecryptDecode(&bad); !errors.Is(err, ErrInvalidCiphertext) {
		t.Errorf("limb/level mismatch: %v", err)
	}
	mixed := *ct
	mixedC0 := *ct.C0
	mixedC0.IsNTT = !ct.C1.IsNTT
	mixed.C0 = &mixedC0
	if _, err := server.Negate(&mixed); !errors.Is(err, ErrInvalidCiphertext) {
		t.Errorf("mixed domain: %v", err)
	}
	scaleless := *ct
	scaleless.Scale = 0
	if _, err := owner.SerializeCiphertext(&scaleless); !errors.Is(err, ErrInvalidCiphertext) {
		t.Errorf("zero scale: %v", err)
	}

	// A flipped wire domain byte must stop at the public deserializers —
	// the decrypt pipeline would double-NTT and panic the ring layer, and
	// evaluation would relabel the data as coefficient-domain, laundering
	// the tag past the decrypt check.
	data, err := device.SerializeCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	data[16] = 1 // claim NTT domain
	if _, err := owner.DeserializeCiphertext(data); !errors.Is(err, ErrMalformedWire) {
		t.Errorf("owner NTT-domain deserialize: %v", err)
	}
	if _, err := server.DeserializeCiphertext(data); !errors.Is(err, ErrMalformedWire) {
		t.Errorf("server NTT-domain deserialize: %v", err)
	}
	// And an in-memory NTT-tagged pair is rejected by every consumer.
	nttCt := *ct
	c0, c1 := *ct.C0, *ct.C1
	c0.IsNTT, c1.IsNTT = true, true
	nttCt.C0, nttCt.C1 = &c0, &c1
	if _, err := owner.DecryptDecode(&nttCt); !errors.Is(err, ErrInvalidCiphertext) {
		t.Errorf("NTT-domain decrypt: %v", err)
	}
	if _, err := owner.DecryptDecodeBatch([]*Ciphertext{&nttCt}); !errors.Is(err, ErrInvalidCiphertext) {
		t.Errorf("NTT-domain batch decrypt: %v", err)
	}
	if _, err := server.Add(&nttCt, &nttCt); !errors.Is(err, ErrInvalidCiphertext) {
		t.Errorf("NTT-domain server add: %v", err)
	}
	if _, err := device.SerializeCiphertext(&nttCt); !errors.Is(err, ErrInvalidCiphertext) {
		t.Errorf("NTT-domain serialize: %v", err)
	}
}

func TestBufferSizeErrors(t *testing.T) {
	owner, device, _ := threeParties(t, Test, 7, 8)
	msg := testMsgs(device.Slots(), 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := owner.DecryptDecodeInto(ct, make([]complex128, 3)); !errors.Is(err, ErrBufferSize) {
		t.Errorf("short slot buffer: %v", err)
	}
	cts := []*Ciphertext{ct, ct}
	if _, err := owner.DecryptDecodeBatchInto(cts, make([][]complex128, 1)); !errors.Is(err, ErrBufferSize) {
		t.Errorf("short batch: %v", err)
	}
	wrong := make([][]complex128, 2)
	wrong[0] = make([]complex128, 5)
	if _, err := owner.DecryptDecodeBatchInto(cts, wrong); !errors.Is(err, ErrBufferSize) {
		t.Errorf("mis-sized batch entry: %v", err)
	}
}

func TestServerOperandErrors(t *testing.T) {
	_, device, server := threeParties(t, Test, 9, 10)
	msg := testMsgs(device.Slots(), 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	low, err := server.DropLevel(ct, 2)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := server.Add(ct, low); !errors.Is(err, ErrLevelMismatch) {
		t.Errorf("level mismatch: %v", err)
	}
	scaled, err := server.MulConst(ct, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Add(ct, scaled); !errors.Is(err, ErrScaleMismatch) {
		t.Errorf("scale mismatch: %v", err)
	}
	if _, err := server.DropLevel(ct, 0); !errors.Is(err, ErrLevelOutOfRange) {
		t.Errorf("drop to 0: %v", err)
	}
	if _, err := server.DropLevel(low, 3); !errors.Is(err, ErrLevelOutOfRange) {
		t.Errorf("drop upwards: %v", err)
	}
	lvl1, err := server.DropLevel(ct, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.Rescale(lvl1); !errors.Is(err, ErrLevelOutOfRange) {
		t.Errorf("rescale below level 1: %v", err)
	}
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1 << 33, -(1 << 33)} {
		if _, err := server.MulConst(ct, c); !errors.Is(err, ErrInvalidConstant) {
			t.Errorf("MulConst(%g): %v", c, err)
		}
	}
	if _, err := server.MulConst(ct, -2.5); err != nil {
		t.Errorf("MulConst(-2.5) must be accepted: %v", err)
	}
}

// TestNonFiniteMessageErrors: NaN/Inf components must be rejected with
// ErrInvalidConstant at every public encode entry point — the same
// contract MulConst always enforced for its scalar. A non-finite float
// feeds math.Frexp garbage during scaling and would silently corrupt
// every slot of the residue polynomial, so it must stop at the door.
func TestNonFiniteMessageErrors(t *testing.T) {
	owner, device, server, evk := evalParties(t, Test)
	slots := device.Slots()

	poison := []complex128{
		complex(math.NaN(), 0),
		complex(0, math.NaN()),
		complex(math.Inf(1), 0),
		complex(0, math.Inf(-1)),
	}
	for _, z := range poison {
		msg := testMsgs(slots, 1)[0]
		msg[slots/2] = z
		if _, err := device.EncodeEncrypt(msg); !errors.Is(err, ErrInvalidConstant) {
			t.Errorf("EncodeEncrypt(%v): %v", z, err)
		}
		if _, err := device.Encode(msg); !errors.Is(err, ErrInvalidConstant) {
			t.Errorf("Encode(%v): %v", z, err)
		}
		if _, err := device.EncodeEncryptBatch([][]complex128{testMsgs(slots, 1)[0], msg}); !errors.Is(err, ErrInvalidConstant) {
			t.Errorf("EncodeEncryptBatch(%v): %v", z, err)
		}
		if _, err := owner.EncodeEncryptCompressed(msg); !errors.Is(err, ErrInvalidConstant) {
			t.Errorf("EncodeEncryptCompressed(%v): %v", z, err)
		}
	}

	// Server-side plaintext operands share the same gate.
	ct, err := device.EncodeEncrypt(testMsgs(slots, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	weights := []complex128{1, complex(0, math.Inf(1)), 3}
	if _, err := server.DotPlain(ct, weights, evk); !errors.Is(err, ErrInvalidConstant) {
		t.Errorf("DotPlain(Inf weight): %v", err)
	}
	// Finite messages still sail through.
	if _, err := device.EncodeEncrypt(testMsgs(slots, 1)[0]); err != nil {
		t.Errorf("finite message rejected: %v", err)
	}
}

// TestScaleToleranceSymmetric: the near-equality test on operand scales
// must not depend on argument order — the old check measured the
// difference against a.Scale only, so (a, b) and (b, a) could disagree
// at the tolerance boundary.
func TestScaleToleranceSymmetric(t *testing.T) {
	_, device, server := threeParties(t, Test, 21, 22)
	msg := testMsgs(device.Slots(), 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}

	within := *ct
	within.Scale = ct.Scale * (1 + 1e-13) // inside the 1e-12 relative budget
	if _, err := server.Add(ct, &within); err != nil {
		t.Errorf("Add(base, nudged): %v", err)
	}
	if _, err := server.Add(&within, ct); err != nil {
		t.Errorf("Add(nudged, base): %v", err)
	}

	beyond := *ct
	beyond.Scale = ct.Scale * (1 + 1e-6)
	if _, err := server.Add(ct, &beyond); !errors.Is(err, ErrScaleMismatch) {
		t.Errorf("Add(base, off): %v", err)
	}
	if _, err := server.Add(&beyond, ct); !errors.Is(err, ErrScaleMismatch) {
		t.Errorf("Add(off, base): %v", err)
	}
}

func TestMalformedCiphertextBytes(t *testing.T) {
	owner, device, server := threeParties(t, Test, 11, 12)
	msg := testMsgs(device.Slots(), 1)[0]
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := device.SerializeCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}

	for name, mut := range map[string][]byte{
		"empty":     nil,
		"truncated": data[:len(data)-9],
		"garbage":   []byte("ABCF but not really a ciphertext"),
		"residue":   flipByte(data, 17+10), // guaranteed-zero bits of packed word 1 (see TestMalformedKeyBytes)
	} {
		if _, err := server.DeserializeCiphertext(mut); !errors.Is(err, ErrMalformedWire) {
			t.Errorf("server %s: %v", name, err)
		}
		if _, err := owner.DeserializeCiphertext(mut); !errors.Is(err, ErrMalformedWire) {
			t.Errorf("owner %s: %v", name, err)
		}
	}
	compressed, err := owner.EncodeEncryptCompressed(msg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := server.ExpandCompressedUpload(compressed[:30]); !errors.Is(err, ErrMalformedWire) {
		t.Errorf("truncated compressed upload: %v", err)
	}
	if _, err := server.ExpandCompressedUpload(data); !errors.Is(err, ErrMalformedWire) {
		t.Errorf("full ciphertext as compressed upload: %v", err)
	}
}

func TestWireBytesLevelErrors(t *testing.T) {
	owner, device, server := threeParties(t, Test, 13, 14)
	for _, level := range []int{0, -1, owner.MaxLevel() + 1} {
		if _, err := device.CiphertextWireBytes(level); !errors.Is(err, ErrLevelOutOfRange) {
			t.Errorf("device level %d: %v", level, err)
		}
		if _, err := server.CompressedWireBytes(level); !errors.Is(err, ErrLevelOutOfRange) {
			t.Errorf("server level %d: %v", level, err)
		}
		if _, err := owner.CompressedWireBytes(level); !errors.Is(err, ErrLevelOutOfRange) {
			t.Errorf("owner level %d: %v", level, err)
		}
	}
}

// TestStaleBackendEnvIgnored: the kernels have one path, so a leftover
// ABCFHE_BACKEND — even a name that never existed — must not change
// anything, least of all panic at construction. The check runs in a fresh
// process (the test binary re-executed with the variable set), because a
// process-wide lookup would have fired once at first use.
func TestStaleBackendEnvIgnored(t *testing.T) {
	const env = "ABCFHE_BACKEND"
	if os.Getenv(env) == "bogus" {
		server, err := NewServer(Test)
		if err != nil {
			t.Fatal(err)
		}
		defer server.Close()
		owner, err := NewKeyOwner(Test, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer owner.Close()
		pk, err := owner.ExportPublicKey()
		if err != nil {
			t.Fatal(err)
		}
		device, err := NewEncryptor(pk, 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer device.Close()
		if _, err := device.EncodeEncrypt(testMsgs(device.Slots(), 1)[0]); err != nil {
			t.Fatal(err)
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestStaleBackendEnvIgnored$", "-test.v")
	cmd.Env = append(os.Environ(), env+"=bogus")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: TestStaleBackendEnvIgnored") {
		t.Fatalf("construction under %s=bogus failed (%v):\n%s", env, err, out)
	}
}
