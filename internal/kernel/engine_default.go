//go:build !dynacut_lockstep

package kernel

// LockstepGate reports whether this is the lockstep gate build (see
// engine_lockstep.go). A plain build gives every new machine the
// translating engine.
const LockstepGate = false

const defaultExecMode = ModeTranslate
