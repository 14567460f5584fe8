//go:build dynacut_lockstep

package kernel

// LockstepGate reports whether this is the lockstep gate build
// (-tags dynacut_lockstep, `make lockstep`). In it every machine from
// NewMachine runs ModeLockstep and panics on the first block-cache
// divergence instead of evicting and carrying on, so every test in the
// suite doubles as a differential test of the cache. SetExecMode opts
// one machine out.
const LockstepGate = true

const defaultExecMode = ModeLockstep
