package dynacut

import (
	"errors"
	"strings"
	"testing"
)

// TestStartServerBootTimeout: a guest that never nudges must fail
// with ErrBootTimeout instead of spinning forever.
func TestStartServerBootTimeout(t *testing.T) {
	exe, err := Assemble("silent", `
.text
.global _start
_start:
	mov r0, 1
	mov r1, 0
	syscall
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = StartServer(exe, nil, 1234)
	if !errors.Is(err, ErrBootTimeout) {
		t.Fatalf("err = %v, want ErrBootTimeout", err)
	}
}

// TestStartServerCrashDuringBoot reports the boot failure details.
func TestStartServerCrashDuringBoot(t *testing.T) {
	exe, err := Assemble("crasher", `
.text
.global _start
_start:
	hlt
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = StartServer(exe, nil, 1234)
	if err == nil || !strings.Contains(err.Error(), "SIGSEGV") {
		t.Fatalf("err = %v, want boot failure mentioning SIGSEGV", err)
	}
}

// TestSessionSnapshotPhaseIsolation: consecutive snapshots don't
// leak blocks into each other.
func TestSessionSnapshotPhaseIsolation(t *testing.T) {
	app, err := BuildWebServer(WebServerConfig{Port: 8080})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := StartServer(app.Exe, []*Binary{app.Libc}, app.Config.Port)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Request("GET /\n"); err != nil {
		t.Fatal(err)
	}
	g1, err := sess.SnapshotPhase("one")
	if err != nil {
		t.Fatal(err)
	}
	// No traffic between snapshots: the second one is (nearly) empty;
	// only residual accept-loop blocks may appear.
	g2, err := sess.SnapshotPhase("two")
	if err != nil {
		t.Fatal(err)
	}
	if g1.Count() == 0 {
		t.Fatal("first snapshot empty")
	}
	if g2.Count() >= g1.Count() {
		t.Fatalf("snapshot leak: %d then %d", g1.Count(), g2.Count())
	}
}

// TestStartServerAuto boots a server that issues no explicit nudge:
// init-end detection comes entirely from the first accept syscall.
func TestStartServerAuto(t *testing.T) {
	// A minimal accept-loop server without any nudge call.
	exe, err := Assemble("nudgeless", `
.text
.global _start
_start:
	; real initialization work (loops => completed basic blocks)
	mov r7, 0
init_loop:
	add r7, 3
	cmp r7, 30
	jl init_loop
	mov r0, 4
	syscall
	mov r8, r0
	mov r0, 5
	mov r1, r8
	mov r2, 7171
	syscall
loop:
	mov r0, 7
	mov r1, r8
	syscall
	mov r9, r0
	mov r0, 3
	mov r1, r9
	mov r2, =buf
	mov r3, 16
	syscall
	mov r0, 2
	mov r1, r9
	lea r2, resp
	mov r3, 3
	syscall
	mov r0, 8
	mov r1, r9
	syscall
	jmp loop
.rodata
resp: .ascii "ok\n"
.bss
buf: .space 16
`)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := StartServerAuto(exe, nil, 7171)
	if err != nil {
		t.Fatalf("StartServerAuto: %v", err)
	}
	if sess.InitLog == nil || len(sess.InitLog.Blocks) == 0 {
		t.Fatal("no init coverage from auto detection")
	}
	resp, err := sess.Request("hello\n")
	if err != nil || !strings.Contains(resp, "ok") {
		t.Fatalf("request -> %q, %v", resp, err)
	}
}

// TestSessionSymbolAddrErrors.
func TestSessionSymbolAddrErrors(t *testing.T) {
	app, err := BuildWebServer(WebServerConfig{Port: 8080})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := StartServer(app.Exe, []*Binary{app.Libc}, app.Config.Port)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.SymbolAddr("resp_403"); err != nil {
		t.Errorf("resp_403: %v", err)
	}
	if _, err := sess.SymbolAddr("no_such_symbol"); err == nil {
		t.Error("missing symbol resolved")
	}
}

// TestCanaryProbePreservesLastErr: the canary health probe
// (HealthProbe) runs in the middle of a rewrite transaction; it must
// not clobber the LastErr a caller is tracking across the rewrite
// (regression: the probe used to go through s.Request, which
// overwrites LastErr).
func TestCanaryProbePreservesLastErr(t *testing.T) {
	app, err := BuildWebServer(WebServerConfig{Port: 8080})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := StartServer(app.Exe, []*Binary{app.Libc}, app.Config.Port)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := sess.ProfileFeatures(
		[]string{"GET /\n", "HEAD /\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"},
	)
	if err != nil {
		t.Fatal(err)
	}
	errAddr, err := sess.SymbolAddr("resp_403")
	if err != nil {
		t.Fatal(err)
	}
	probe := HealthProbe(sess.Port, "GET /\n", "200")
	probeRan := false
	cust, err := NewCustomizer(sess.Machine, sess.PID(), CustomizerOptions{
		RedirectTo: errAddr,
		HealthCheck: func(m *Machine, pid int) error {
			probeRan = true
			return probe(m, pid)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("sentinel: pre-rewrite outcome")
	sess.LastErr = sentinel
	if _, err := cust.DisableBlocks("webdav", blocks, PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	if !probeRan {
		t.Fatal("canary probe never ran")
	}
	if sess.LastErr != sentinel {
		t.Fatalf("LastErr clobbered by canary probe: %v", sess.LastErr)
	}
	if resp := sess.MustRequest("GET /\n"); !strings.Contains(resp, "200") {
		t.Fatalf("GET after canaried rewrite -> %q", resp)
	}
}

// TestRequestDrainsMultiSegmentResponse: a guest that writes its
// response in several widely-spaced segments (here one byte every
// ~36k ticks, wider than the old fixed 20k-tick drain) must still
// yield the complete response (regression: requestOnce drained a
// fixed window after the first byte and truncated the rest).
func TestRequestDrainsMultiSegmentResponse(t *testing.T) {
	exe, err := Assemble("slowwriter", `
.text
.global _start
_start:
	mov r0, 4
	syscall
	mov r8, r0
	mov r0, 5
	mov r1, r8
	mov r2, 7373
	syscall
	mov r0, 15
	mov r1, 0
	syscall              ; nudge: init done
loop:
	mov r0, 7
	mov r1, r8
	syscall
	mov r9, r0
	mov r0, 3
	mov r1, r9
	mov r2, =buf
	mov r3, 16
	syscall
	; respond "SLOW!" one byte at a time, spinning between bytes
	mov r14, 0
seg:
	mov r10, 0
spin:
	add r10, 1
	cmp r10, 12000
	jl spin
	lea r2, resp
	add r2, r14
	mov r0, 2
	mov r1, r9
	mov r3, 1
	syscall
	add r14, 1
	cmp r14, 5
	jl seg
	mov r0, 8
	mov r1, r9
	syscall
	jmp loop
.rodata
resp: .ascii "SLOW!"
.bss
buf: .space 16
`)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := StartServer(exe, nil, 7373)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := sess.Request("ping\n")
	if err != nil {
		t.Fatal(err)
	}
	if resp != "SLOW!" {
		t.Fatalf("response = %q, want %q (truncated drain?)", resp, "SLOW!")
	}
}

// TestMustRequestSwallowsErrors.
func TestMustRequestSwallowsErrors(t *testing.T) {
	app, err := BuildWebServer(WebServerConfig{Port: 8080})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := StartServer(app.Exe, []*Binary{app.Libc}, app.Config.Port)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Machine.Kill(sess.PID()); err != nil {
		t.Fatal(err)
	}
	if got := sess.MustRequest("GET /\n"); got != "" {
		t.Fatalf("MustRequest on dead server = %q", got)
	}
}

// TestRequestReportsTruncatedResponse: a guest that drips response
// bytes forever without ever closing the connection must exhaust the
// per-request instruction budget; Request has to surface the partial
// body alongside ErrTruncatedResponse instead of passing the
// truncation off as a complete response (regression: budget
// exhaustion used to return the partial body with a nil error,
// indistinguishable from success).
func TestRequestReportsTruncatedResponse(t *testing.T) {
	exe, err := Assemble("dripd", `
.text
.global _start
_start:
	mov r0, 4
	syscall
	mov r8, r0
	mov r0, 5
	mov r1, r8
	mov r2, 7474
	syscall
	mov r0, 15
	mov r1, 0
	syscall              ; nudge: init done
	mov r0, 7
	mov r1, r8
	syscall
	mov r9, r0
	mov r0, 3
	mov r1, r9
	mov r2, =buf
	mov r3, 16
	syscall
drip:                    ; one "." every ~36k ticks, forever, no close
	mov r10, 0
spin:
	add r10, 1
	cmp r10, 12000
	jl spin
	mov r0, 2
	mov r1, r9
	lea r2, dot
	mov r3, 1
	syscall
	jmp drip
.rodata
dot: .ascii "."
.bss
buf: .space 16
`)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := StartServer(exe, nil, 7474)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := sess.Request("ping\n")
	if !errors.Is(err, ErrTruncatedResponse) {
		t.Fatalf("drip request error = %v, want ErrTruncatedResponse", err)
	}
	if len(resp) == 0 || strings.Trim(resp, ".") != "" {
		t.Fatalf("partial body = %q, want non-empty run of dots", resp)
	}
	if !errors.Is(sess.LastErr, ErrTruncatedResponse) {
		t.Fatalf("LastErr = %v, want ErrTruncatedResponse", sess.LastErr)
	}
}

// TestRequestEndsWhenGuestIdlesNearBudget: a guest that answers inside
// the last quiet window of the request budget and then blocks in read
// with the connection open must end the request with that byte and a
// nil error. Regression: the drain loop kept granting shrinking
// windows to an idle machine whose clock no longer moved, and Request
// never returned.
func TestRequestEndsWhenGuestIdlesNearBudget(t *testing.T) {
	exe, err := Assemble("lated", `
.text
.global _start
_start:
	mov r0, 4
	syscall
	mov r8, r0
	mov r0, 5
	mov r1, r8
	mov r2, 7575
	syscall
	mov r0, 15
	mov r1, 0
	syscall              ; nudge: init done
	mov r0, 7
	mov r1, r8
	syscall
	mov r9, r0
	mov r0, 3
	mov r1, r9
	mov r2, =buf
	mov r3, 16
	syscall
	mov r10, 0           ; spin ~4.96M ticks of the 5M budget
spin:
	add r10, 1
	cmp r10, 1653000
	jl spin
	mov r0, 2
	mov r1, r9
	lea r2, ok
	mov r3, 1
	syscall
	mov r0, 3            ; block reading the open connection
	mov r1, r9
	mov r2, =buf
	mov r3, 16
	syscall
	jmp spin
.rodata
ok: .ascii "!"
.bss
buf: .space 16
`)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := StartServer(exe, nil, 7575)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := sess.Request("ping\n")
	if err != nil {
		t.Fatalf("request error = %v, want nil", err)
	}
	if resp != "!" {
		t.Fatalf("response = %q, want %q", resp, "!")
	}
}

// TestRequestAllocs pins Request's allocations per exchange with the
// tracer detached: 9 for a kvstore GET, 8 for a webserv GET.
func TestRequestAllocs(t *testing.T) {
	kv, err := BuildKVStore(KVStoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	web, err := BuildWebServer(WebServerConfig{Port: 8080})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		exe, libc *Binary
		port      uint16
		req       string
		max       float64
	}{
		{kv.Exe, kv.Libc, kv.Config.Port, "GET a\n", 9},
		{web.Exe, web.Libc, web.Config.Port, "GET /\n", 8},
	} {
		sess, err := StartServer(c.exe, []*Binary{c.libc}, c.port)
		if err != nil {
			t.Fatal(err)
		}
		sess.Machine.SetTracer(nil)
		sess.Machine.SetExecMode(ModeTranslate)
		sess.MustRequest(c.req)
		if got := testing.AllocsPerRun(50, func() { sess.MustRequest(c.req) }); got > c.max {
			t.Errorf("%s %q: %.1f allocs per request, want <= %.0f", c.exe.Name, c.req, got, c.max)
		}
	}
}
