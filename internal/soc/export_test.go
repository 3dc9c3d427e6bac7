package soc

// Test hooks for the external soc_test package, which drives the real
// governors (internal/policy imports soc) and so cannot set the
// unexported Config switches directly.

// SetNoTickMemo turns the steady-state tick memo off (v true) or on.
func SetNoTickMemo(c *Config, v bool) { c.noTickMemo = v }

// SetNoPBMMemo turns the PBM grant memo off (v true) or on.
func SetNoPBMMemo(c *Config, v bool) { c.noPBMMemo = v }

// SetNoSpanBatching walks the run one tick at a time (v true), the
// per-tick reference the span-batched core is checked against, or
// restores span batching.
func SetNoSpanBatching(c *Config, v bool) { c.noSpanBatching = v }

// SpanImageStats reports, for the runner's last run, how many spans
// were served from a memo slot's stall-free span image and how many
// spans the run integrated in all.
func SpanImageStats(r *Runner) (served, spans int) { return r.p.imageSpans, r.p.spans }
