package dynacut

import (
	"runtime"
	"testing"
)

// startKVCut boots the kvstore guest, profiles STRALGO against the
// serving mix and returns the session, a customizer redirecting traps
// to resp_err, and STRALGO's blocks.
func startKVCut(t *testing.T) (*Session, *Customizer, []AbsBlock) {
	t.Helper()
	app, err := BuildKVStore(KVStoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := StartServer(app.Exe, []*Binary{app.Libc}, app.Config.Port)
	if err != nil {
		t.Fatal(err)
	}
	redir, err := sess.SymbolAddr("resp_err")
	if err != nil {
		t.Fatal(err)
	}
	wanted := []string{"PING\n", "GET a\n", "SET a v\n", "EXISTS a\n", "INCR a\n", "DEL a\n", "WHAT\n"}
	blocks, err := sess.ProfileFeatures(wanted, []string{"STRALGO LCS ab\n"})
	if err != nil {
		t.Fatal(err)
	}
	cust, err := NewCustomizer(sess.Machine, sess.PID(), CustomizerOptions{RedirectTo: redir})
	if err != nil {
		t.Fatal(err)
	}
	return sess, cust, blocks
}

func mustAnswer(t *testing.T, sess *Session, req, want string) {
	t.Helper()
	resp, err := sess.Request(req)
	if err != nil || resp != want {
		t.Fatalf("%q -> %q, %v; want %q", req, resp, err, want)
	}
}

// TestBlockCacheKVCutKeepsWantedBlocks: a cut's restored guest inherits
// the killed guest's translations, so a wanted request that ran before
// the cut records no block after it, while the cut feature still traps.
func TestBlockCacheKVCutKeepsWantedBlocks(t *testing.T) {
	sess, cust, blocks := startKVCut(t)
	// The first cut injects the handler library, which changes the VMA
	// table: that restore starts empty.
	if _, err := cust.DisableBlocks("STRALGO", blocks, PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	if got := sess.Machine.BlockCacheStats().Inherited; got != 0 {
		t.Fatalf("handler injection changed the layout, yet %d blocks were inherited", got)
	}
	if _, err := cust.EnableBlocks("STRALGO"); err != nil {
		t.Fatal(err)
	}
	mustAnswer(t, sess, "SET a v\n", "+OK\n")
	mustAnswer(t, sess, "GET a\n", "v\n")
	mustAnswer(t, sess, "STRALGO LCS ab\n", "+OK\n") // its blocks are cached now

	if _, err := cust.DisableBlocks("STRALGO", blocks, PolicyBlockEntry); err != nil {
		t.Fatal(err)
	}
	st := sess.Machine.BlockCacheStats()
	if st.Inherited == 0 {
		t.Fatalf("the cut's restore inherited nothing: %+v", st)
	}
	mustAnswer(t, sess, "SET a w\n", "+OK\n")
	mustAnswer(t, sess, "GET a\n", "w\n")
	if got := sess.Machine.BlockCacheStats().Translations; got != st.Translations {
		t.Fatalf("wanted requests recorded %d blocks after the cut, want 0", got-st.Translations)
	}
	mustAnswer(t, sess, "STRALGO LCS ab\n", "-ERR\n")
	if n := sess.Machine.CacheDivergenceCount(); n != 0 {
		t.Fatalf("%d stale decodes: %v", n, sess.Machine.CacheDivergences())
	}
	if p, _ := sess.Machine.Process(cust.PID()); p == nil || p.Exited() {
		t.Fatal("guest died")
	}
}

// TestFirstRequestAfterCutAllocs pins what the first kvstore request
// after a DisableBlocks allocates, averaged over cut cycles. A restore
// shares every page with the images, and the commit hands the restored
// guest the pages the killed guest held privately, so the request
// copies none of the pages it writes: 8 allocations and about 200
// bytes, as when the restore copied every writable page. A restore
// that only shared them put two page copies on it (10 allocations,
// 8 KiB).
func TestFirstRequestAfterCutAllocs(t *testing.T) {
	sess, cust, blocks := startKVCut(t)
	const cycles = 20
	var allocs, bytes uint64
	for i := 0; i < cycles; i++ {
		if _, err := cust.DisableBlocks("STRALGO", blocks, PolicyBlockEntry); err != nil {
			t.Fatal(err)
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		resp, err := sess.Request("SET a v\n")
		runtime.ReadMemStats(&ms1)
		if err != nil || resp != "+OK\n" {
			t.Fatalf("cycle %d: first request -> %q, %v", i, resp, err)
		}
		if i > 0 { // the first cut injects the handler library
			allocs += ms1.Mallocs - ms0.Mallocs
			bytes += ms1.TotalAlloc - ms0.TotalAlloc
		}
		for _, req := range []string{"GET a\n", "INCR n\n", "SET b w\n", "DEL b\n", "EXISTS a\n", "PING\n"} {
			sess.MustRequest(req)
		}
		mustAnswer(t, sess, "STRALGO LCS ab\n", "-ERR\n")
		if _, err := cust.EnableBlocks("STRALGO"); err != nil {
			t.Fatal(err)
		}
		mustAnswer(t, sess, "STRALGO LCS ab\n", "+OK\n")
	}
	n := float64(cycles - 1)
	t.Logf("first request after a cut: %.1f allocs, %.0f B", float64(allocs)/n, float64(bytes)/n)
	if got := float64(allocs) / n; got >= 8.5 {
		t.Errorf("%.1f allocs per first request after a cut, want 8", got)
	}
	if got := float64(bytes) / n; got >= 2048 {
		t.Errorf("%.0f bytes per first request after a cut, want < 2048", got)
	}
}
