package core

import (
	"bytes"
	"testing"
)

// CheckHandlerLibIntact fails t unless the shared handler library is
// byte-identical, section by section, to a freshly built one: every
// customizer injects the same *delf.File, so none may write into it.
func CheckHandlerLibIntact(t testing.TB) {
	t.Helper()
	shared, err := BuildHandlerLib()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := buildHandlerLib()
	if err != nil {
		t.Fatal(err)
	}
	if len(shared.Sections) != len(fresh.Sections) {
		t.Fatalf("shared handler library has %d sections, a fresh build %d", len(shared.Sections), len(fresh.Sections))
	}
	for i, s := range shared.Sections {
		f := fresh.Sections[i]
		if s.Name != f.Name || s.Addr != f.Addr || s.Size != f.Size || s.Perm != f.Perm || !bytes.Equal(s.Data, f.Data) {
			t.Errorf("shared handler library section %s differs from a fresh build", s.Name)
		}
	}
	if !bytes.Equal(shared.Marshal(), fresh.Marshal()) {
		t.Error("shared handler library's symbols or relocations differ from a fresh build")
	}
}
