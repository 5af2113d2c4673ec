package lanes

// kernelFamily names the limb-kernel implementation the lane tasks run.
// There is one: fixed-width Barrett inner loops with lazy-reduction NTT
// butterflies and the fused hybrid key switch (internal/ring,
// internal/ckks), each checked against a reference implementation in
// those packages' tests.
type kernelFamily string

// Name is the identifier bench records carry in their host fingerprint.
func (k kernelFamily) Name() string { return string(k) }

// DefaultBackend reports the kernel family, so bench records from
// different commits stay comparable.
func DefaultBackend() kernelFamily { return "fast" }
