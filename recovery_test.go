package dynacut

import (
	"errors"
	"strings"
	"testing"

	"github.com/dynacut/dynacut/internal/core"
	"github.com/dynacut/dynacut/internal/faultinject"
)

// profileWebDAV boots the web server and profiles the WebDAV write
// feature (PUT/DELETE) as undesired.
func profileWebDAV(t *testing.T, port uint16) (*Session, []AbsBlock, uint64) {
	t.Helper()
	sess, _ := startWebSession(t, WebServerConfig{Port: port})
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
	return sess, blocks, errAddr
}

// TestCanaryDetectsBadCustomization is the end-to-end failure-model
// demo: the operator disables the blocks that serve GET, the canary
// health check (a GET probe) fails after restore, and the transaction
// rolls the guest back to the pre-edit images — GET keeps working.
func TestCanaryDetectsBadCustomization(t *testing.T) {
	sess, _ := startWebSession(t, WebServerConfig{Port: 8090})
	// Deliberately inverted profile: GET is "undesired".
	blocks, err := sess.ProfileFeatures(
		[]string{"PUT /f data\n", "DELETE /f\n"},
		[]string{"GET /\n"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) == 0 {
		t.Fatal("no GET-only blocks")
	}
	errAddr, err := sess.SymbolAddr("resp_403")
	if err != nil {
		t.Fatal(err)
	}
	cust, err := NewCustomizer(sess.Machine, sess.PID(), CustomizerOptions{
		RedirectTo:  errAddr,
		HealthCheck: HealthProbe(sess.Port, "GET /\n", "200"),
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := cust.DisableBlocks("get", blocks, PolicyBlockEntry)
	if !errors.Is(err, ErrRolledBack) {
		t.Fatalf("disabling GET with a GET canary -> %v, want ErrRolledBack", err)
	}
	if !stats.RolledBack {
		t.Error("stats.RolledBack = false after rollback")
	}
	if errors.Is(err, core.ErrRollbackFailed) {
		t.Fatalf("rollback failed: %v", err)
	}
	// The rolled-back guest serves GET as before.
	resp, err := sess.Request("GET /\n")
	if err != nil || !strings.Contains(resp, "200") {
		t.Fatalf("GET after rollback -> %q, %v", resp, err)
	}
}

// TestFaultInjectedRestoreRollsBackThenSucceeds drives the public
// chaos surface: a seeded injector kills the first restore, the guest
// rolls back and keeps serving, and a clean retry commits.
func TestFaultInjectedRestoreRollsBackThenSucceeds(t *testing.T) {
	sess, blocks, errAddr := profileWebDAV(t, 8091)
	in := NewFaultInjector(42)
	in.FailAt(faultinject.PrefixRestore, 2)
	sess.Machine.SetFaultHook(in)

	cust, err := NewCustomizer(sess.Machine, sess.PID(), CustomizerOptions{
		RedirectTo:  errAddr,
		HealthCheck: HealthProbe(sess.Port, "GET /\n", "200"),
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := cust.DisableBlocks("webdav", blocks, PolicyBlockEntry)
	switch {
	case !errors.Is(err, ErrRolledBack):
		t.Fatalf("err = %v, want ErrRolledBack", err)
	case !errors.Is(err, ErrRestoreFailed):
		t.Fatalf("err = %v, want ErrRestoreFailed in chain", err)
	case !errors.Is(err, faultinject.ErrInjected):
		t.Fatalf("err = %v, want faultinject.ErrInjected in chain", err)
	}
	if !stats.RolledBack || in.Injected() == 0 {
		t.Fatalf("RolledBack=%v injected=%d", stats.RolledBack, in.Injected())
	}
	// Rolled back: both features still served by the original images.
	if resp := sess.MustRequest("GET /\n"); !strings.Contains(resp, "200") {
		t.Fatalf("GET after rollback -> %q (LastErr %v)", resp, sess.LastErr)
	}
	if resp := sess.MustRequest("PUT /f x\n"); !strings.Contains(resp, "201") {
		t.Fatalf("PUT after rollback -> %q", resp)
	}

	// The injector is spent (one-shot plan): the retry commits.
	cust, err = NewCustomizer(sess.Machine, cust.PID(), CustomizerOptions{
		RedirectTo:  errAddr,
		HealthCheck: HealthProbe(sess.Port, "GET /\n", "200"),
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err = cust.DisableBlocks("webdav", blocks, PolicyBlockEntry)
	if err != nil {
		t.Fatalf("clean retry: %v", err)
	}
	if stats.RolledBack || stats.BlocksPatched == 0 {
		t.Fatalf("retry stats: %+v", stats)
	}
	if resp := sess.MustRequest("PUT /f x\n"); !strings.Contains(resp, "403") {
		t.Fatalf("PUT after customization -> %q", resp)
	}
	if resp := sess.MustRequest("GET /\n"); !strings.Contains(resp, "200") {
		t.Fatalf("GET after customization -> %q", resp)
	}
}

// TestMaxAttemptsRetriesTransientFault: with MaxAttempts 2 a
// transient restore fault is absorbed; the rewrite commits on the
// second attempt and reports it.
func TestMaxAttemptsRetriesTransientFault(t *testing.T) {
	sess, blocks, errAddr := profileWebDAV(t, 8092)
	in := NewFaultInjector(7)
	in.FailTransient("criu.restore.", 1, 1)
	sess.Machine.SetFaultHook(in)

	cust, err := NewCustomizer(sess.Machine, sess.PID(), CustomizerOptions{
		RedirectTo:  errAddr,
		MaxAttempts: 2,
		HealthCheck: HealthProbe(sess.Port, "GET /\n", "200"),
	})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := cust.DisableBlocks("webdav", blocks, PolicyBlockEntry)
	if err != nil {
		t.Fatalf("rewrite with retry budget: %v", err)
	}
	if stats.Attempts != 2 || stats.RolledBack {
		t.Fatalf("Attempts=%d RolledBack=%v, want 2/false", stats.Attempts, stats.RolledBack)
	}
	if resp := sess.MustRequest("PUT /f x\n"); !strings.Contains(resp, "403") {
		t.Fatalf("PUT after retried customization -> %q", resp)
	}
}

// TestUnmarshalImagesRejectsCorruption: the public decode path
// refuses checksum-violating blobs before anything touches a guest.
func TestUnmarshalImagesRejectsCorruption(t *testing.T) {
	sess, _ := startWebSession(t, WebServerConfig{Port: 8093})
	set, err := Dump(sess.Machine, sess.PID(), DumpOpts{ExecPages: true})
	if err != nil {
		t.Fatal(err)
	}
	blob := set.Marshal()
	if _, err := UnmarshalImages(blob); err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
	blob[len(blob)/2] ^= 0x01
	_, err = UnmarshalImages(blob)
	if !errors.Is(err, ErrCorruptImage) {
		t.Fatalf("corrupt blob -> %v, want ErrCorruptImage", err)
	}
	// The guest was never touched.
	if resp := sess.MustRequest("GET /\n"); !strings.Contains(resp, "200") {
		t.Fatalf("GET -> %q", resp)
	}
}

// TestRequestRecordsLastErr: Request and MustRequest both leave the
// outcome in LastErr so MustRequest callers can still diagnose.
func TestRequestRecordsLastErr(t *testing.T) {
	sess, _ := startWebSession(t, WebServerConfig{Port: 8094})
	if resp := sess.MustRequest("GET /\n"); !strings.Contains(resp, "200") {
		t.Fatalf("GET -> %q", resp)
	}
	if sess.LastErr != nil {
		t.Fatalf("LastErr after success: %v", sess.LastErr)
	}
	// Point the session at a port nobody listens on.
	goodPort := sess.Port
	sess.Port = 9999
	if got := sess.MustRequest("GET /\n"); got != "" {
		t.Fatalf("MustRequest to dead port = %q", got)
	}
	if sess.LastErr == nil {
		t.Fatal("LastErr not recorded for failed MustRequest")
	}
	sess.Port = goodPort
	if _, err := sess.Request("GET /\n"); err != nil || sess.LastErr != nil {
		t.Fatalf("recovery request: %v / LastErr %v", err, sess.LastErr)
	}
}

// TestStartServerAutoServesImmediately is the regression for the
// missing post-boot drain: the first request right after
// StartServerAuto must succeed (the guest is parked on accept).
func TestStartServerAutoServesImmediately(t *testing.T) {
	app, err := BuildWebServer(WebServerConfig{Port: 8095})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := StartServerAuto(app.Exe, []*Binary{app.Libc}, app.Config.Port)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := sess.Request("GET /\n")
	if err != nil || !strings.Contains(resp, "200") {
		t.Fatalf("first request after StartServerAuto -> %q, %v", resp, err)
	}
}
