package dynacut

import "testing"

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
