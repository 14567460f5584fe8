package dynacut

import (
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/kernel"
)

func startWebSession(t *testing.T, cfg WebServerConfig) (*Session, *WebServerApp) {
	t.Helper()
	app, err := BuildWebServer(cfg)
	if err != nil {
		t.Fatalf("BuildWebServer: %v", err)
	}
	sess, err := StartServer(app.Exe, []*Binary{app.Libc}, app.Config.Port)
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	return sess, app
}

func TestSessionBootAndRequest(t *testing.T) {
	sess, _ := startWebSession(t, WebServerConfig{Port: 8080})
	if sess.InitLog == nil || len(sess.InitLog.Blocks) == 0 {
		t.Fatal("no init coverage captured")
	}
	resp, err := sess.Request("GET /\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp, "200") {
		t.Fatalf("GET -> %q", resp)
	}
	if _, err := sess.Root(); err != nil {
		t.Fatal(err)
	}
	if sess.InitGraph().Count() == 0 {
		t.Fatal("empty init graph")
	}
}

func TestPublicEndToEndCustomization(t *testing.T) {
	sess, _ := startWebSession(t, WebServerConfig{Port: 8080})
	blocks, err := sess.ProfileFeatures(
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /x\n"},
		[]string{"PUT /f data\n", "DELETE /f\n"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) == 0 {
		t.Fatal("no feature blocks")
	}
	errAddr, err := sess.SymbolAddr("resp_403")
	if err != nil {
		t.Fatal(err)
	}
	cust, err := NewCustomizer(sess.Machine, sess.PID(), CustomizerOptions{RedirectTo: errAddr})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := cust.DisableBlocks("webdav", blocks, PolicyBlockEntry)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BlocksPatched == 0 {
		t.Error("nothing patched")
	}
	if resp := sess.MustRequest("PUT /f x\n"); !strings.Contains(resp, "403") {
		t.Fatalf("PUT -> %q", resp)
	}
	if resp := sess.MustRequest("GET /\n"); !strings.Contains(resp, "200") {
		t.Fatalf("GET -> %q", resp)
	}
	if _, err := cust.EnableBlocks("webdav"); err != nil {
		t.Fatal(err)
	}
	if resp := sess.MustRequest("PUT /f x\n"); !strings.Contains(resp, "201") {
		t.Fatalf("PUT after enable -> %q", resp)
	}
}

func TestPublicAssemble(t *testing.T) {
	lib, err := assembleLibrary("mini.so", `
.text
.global seven
seven:
	mov r0, 7
	ret
`)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := Assemble("mini", `
.text
.global _start
_start:
	call seven@plt
	mov r1, r0
	mov r0, 1
	syscall
`, lib)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine()
	p, err := m.Load(exe, lib)
	if err != nil {
		t.Fatal(err)
	}
	m.Run(1000)
	if !p.Exited() || p.ExitCode() != 7 {
		t.Fatalf("exit = %v/%d", p.Exited(), p.ExitCode())
	}
}

func TestPublicCFGAndBaselines(t *testing.T) {
	sess, app := startWebSession(t, WebServerConfig{Port: 8080})
	cfg := AnalyzeCFG(app.Exe)
	if cfg.Count() == 0 {
		t.Fatal("empty CFG")
	}
	if _, err := sess.Request("GET /\n"); err != nil {
		t.Fatal(err)
	}
	g, err := sess.SnapshotPhase("get-only")
	if err != nil {
		t.Fatal(err)
	}
	full := MergeGraphs(sess.InitGraph(), g)
	razor, err := RazorDebloat(app.Exe, full)
	if err != nil {
		t.Fatal(err)
	}
	chisel, err := ChiselDebloat(app.Exe, full)
	if err != nil {
		t.Fatal(err)
	}
	if !(chisel.LiveFraction() < razor.LiveFraction() && razor.LiveFraction() < 1.0) {
		t.Errorf("live fractions: chisel=%.3f razor=%.3f",
			chisel.LiveFraction(), razor.LiveFraction())
	}
	unexec := IdentifyUnexecutedBlocks(cfg, full, app.Exe.Name)
	if len(unexec) == 0 {
		t.Error("no unexecuted blocks found")
	}
	if len(unexec) >= cfg.Count() {
		t.Error("everything reported unexecuted")
	}
}

func TestPublicDumpRestore(t *testing.T) {
	sess, _ := startWebSession(t, WebServerConfig{Port: 8080})
	set, err := Dump(sess.Machine, sess.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Machine.Kill(sess.PID()); err != nil {
		t.Fatal(err)
	}
	procs, _, err := Restore(sess.Machine, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 1 {
		t.Fatalf("restored %d", len(procs))
	}
	if resp := sess.MustRequest("GET /\n"); !strings.Contains(resp, "200") {
		t.Fatalf("GET after manual dump/restore -> %q", resp)
	}
}

func TestRequestErrors(t *testing.T) {
	sess, _ := startWebSession(t, WebServerConfig{Port: 8080})
	// Kill the server: requests must fail, not hang.
	if err := sess.Machine.Kill(sess.PID()); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Request("GET /\n"); err == nil {
		t.Fatal("request to dead server succeeded")
	}
	if _, err := sess.Root(); err == nil {
		t.Fatal("Root on dead machine succeeded")
	}
}

// TestPublicExecModes: the execution-engine surface — ExecMode on a
// session's machine, cache statistics, and the lockstep differential
// oracle — all reachable through the public API.
func TestPublicExecModes(t *testing.T) {
	sess, _ := startWebSession(t, WebServerConfig{Port: 8080})

	want := ModeTranslate
	if kernel.LockstepGate {
		want = ModeLockstep // -tags dynacut_lockstep: every machine self-checks its cache
	}
	if got := sess.Machine.ExecMode(); got != want {
		t.Fatalf("default mode %v, want %v", got, want)
	}
	sess.Machine.SetExecMode(ModeTranslate)
	for _, req := range []string{"GET /\n", "HEAD /\n", "GET /\n"} {
		resp, err := sess.Request(req)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(resp, "200") {
			t.Fatalf("%q -> %q under translate", req, resp)
		}
	}
	st := sess.Machine.BlockCacheStats()
	if st.Hits == 0 || st.Translations == 0 {
		t.Fatalf("translate mode never used the cache: %+v", st)
	}

	// The oracle: interpreter vs translator on clones of the booted
	// server, request traffic driven symmetrically into both.
	ls := NewLockstep(sess.Machine, ModeLockstep)
	for i := 0; i < 3; i++ {
		ls.Do(func(m *Machine) {
			conn, err := m.Dial(8080)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write([]byte("GET /\n")); err != nil {
				t.Fatal(err)
			}
		})
		ls.Run(200)
	}
	if divs := ls.Divergences(); len(divs) != 0 {
		t.Fatalf("lockstep diverged: %v", divs)
	}
}
