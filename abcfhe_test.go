// Client-pipeline tests on the role types: a device encrypts under the
// owner's public key, a keyless server computes, the owner decrypts.
// Misuse coverage lives in roles_test.go / errors_test.go.

package abcfhe

import (
	"math/cmplx"
	"testing"
)

// ownerAndDevice builds a key owner and an Encryptor over its exported
// public key, seeded like the owner.
func ownerAndDevice(t *testing.T, seedLo, seedHi uint64) (*KeyOwner, *Encryptor) {
	t.Helper()
	owner, err := NewKeyOwner(Test, seedLo, seedHi)
	if err != nil {
		t.Fatal(err)
	}
	pk, err := owner.ExportPublicKey()
	if err != nil {
		t.Fatal(err)
	}
	device, err := NewEncryptor(pk, seedLo, seedHi)
	if err != nil {
		t.Fatal(err)
	}
	return owner, device
}

func TestClientRoundTrip(t *testing.T) {
	owner, device := ownerAndDevice(t, 1, 2)
	msg := make([]complex128, device.Slots())
	for i := range msg {
		msg[i] = complex(float64(i%7)/7-0.5, float64(i%11)/11-0.5)
	}
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Level != device.MaxLevel() {
		t.Fatal("fresh ciphertext must be at full depth")
	}
	got, err := owner.DecryptDecode(ct)
	if err != nil {
		t.Fatal(err)
	}
	for i := range msg {
		if cmplx.Abs(got[i]-msg[i]) > 1e-4 {
			t.Fatalf("slot %d error %g", i, cmplx.Abs(got[i]-msg[i]))
		}
	}
}

func TestClientServerFlow(t *testing.T) {
	// The paper's deployment: client encrypts at full depth, server
	// computes and returns a 2-limb ciphertext, client decrypts it.
	owner, device := ownerAndDevice(t, 3, 4)
	server, err := NewServer(Test)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]complex128, device.Slots())
	for i := range msg {
		msg[i] = complex(0.25, -0.125)
	}
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	doubled, err := server.Add(ct, ct) // server-side work
	if err != nil {
		t.Fatal(err)
	}
	small, err := server.DropLevel(doubled, 2) // server returns 2-limb state
	if err != nil {
		t.Fatal(err)
	}
	got, err := owner.DecryptDecode(small)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if cmplx.Abs(got[i]-complex(0.5, -0.25)) > 1e-4 {
			t.Fatalf("slot %d: %v", i, got[i])
		}
	}
}

func TestUnknownPreset(t *testing.T) {
	if _, err := NewKeyOwner(Preset("bogus"), 0, 0); err == nil {
		t.Fatal("unknown preset must error")
	}
}

func TestAcceleratorSummary(t *testing.T) {
	a := NewAccelerator()
	s := a.Summarize()
	if s.AreaMM2 < 25 || s.AreaMM2 > 32 {
		t.Fatalf("area %.2f mm² far from Table II's 28.638", s.AreaMM2)
	}
	if s.PowerW < 4.5 || s.PowerW > 7 {
		t.Fatalf("power %.2f W far from Table II's 5.654", s.PowerW)
	}
	if s.EncMS <= 0 || s.DecMS <= 0 || s.DecMS > s.EncMS {
		t.Fatalf("latency ordering wrong: enc %.4f dec %.4f", s.EncMS, s.DecMS)
	}
	if s.EncMOPs < 25 || s.EncMOPs > 29 {
		t.Fatalf("enc MOPs %.1f far from paper's 27.0", s.EncMOPs)
	}
	// Reconfiguration helpers return modified copies.
	if NewAccelerator().WithLanes(4).EncodeEncryptMS() <= a.EncodeEncryptMS() {
		t.Fatal("fewer lanes must not be faster")
	}
	if NewAccelerator().WithDegree(14).EncodeEncryptMS() >= a.EncodeEncryptMS() {
		t.Fatal("smaller degree must be faster")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := Experiments()
	if len(ids) != 16 {
		t.Fatalf("expected 16 experiments, have %v", ids)
	}
	out, err := RunExperiment("table1", true)
	if err != nil || out == "" {
		t.Fatalf("table1: %v", err)
	}
	if _, err := RunExperiment("nope", true); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestSerializationAPI(t *testing.T) {
	owner, device := ownerAndDevice(t, 5, 6)
	msg := make([]complex128, 8)
	for i := range msg {
		msg[i] = complex(0.1*float64(i), -0.05*float64(i))
	}
	ct, err := device.EncodeEncrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := device.SerializeCiphertext(ct)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := device.CiphertextWireBytes(ct.Level); err != nil || len(data) != want {
		t.Fatalf("wire size %d != reported %d (%v)", len(data), want, err)
	}
	back, err := owner.DeserializeCiphertext(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := owner.DecryptDecode(back)
	if err != nil {
		t.Fatal(err)
	}
	for i := range msg {
		if cmplx.Abs(got[i]-msg[i]) > 1e-4 {
			t.Fatalf("slot %d after wire round trip: %v", i, got[i])
		}
	}
}

func TestCompressedUploadAPI(t *testing.T) {
	owner, err := NewKeyOwner(Test, 7, 8)
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewServer(Test)
	if err != nil {
		t.Fatal(err)
	}
	msg := make([]complex128, owner.Slots())
	for i := range msg {
		msg[i] = complex(0.25, -0.25)
	}
	data, err := owner.EncodeEncryptCompressed(msg)
	if err != nil {
		t.Fatal(err)
	}
	full, err := owner.CiphertextWireBytes(owner.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(data)) > 0.52*float64(full) {
		t.Fatalf("compressed upload %d bytes not ≈half of %d", len(data), full)
	}
	if want, err := owner.CompressedWireBytes(owner.MaxLevel()); err != nil || len(data) != want {
		t.Fatal("compressed size does not match the reported wire size")
	}
	ct, err := server.ExpandCompressedUpload(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := owner.DecryptDecode(ct)
	if err != nil {
		t.Fatal(err)
	}
	for i := range msg {
		if cmplx.Abs(got[i]-msg[i]) > 1e-4 {
			t.Fatalf("slot %d after compressed round trip: %v", i, got[i])
		}
	}
}
