// Migrate example: CRIU's original job — live process migration —
// plus DynaCut's twist. A web server is customized (write methods
// blocked, init code wiped) on machine A, dumped to a serialized
// image blob, shipped to machine B together with its binaries, and
// restored there. The customization travels with the image: the
// restored server still answers 403 to PUT without ever having been
// rewritten on B, and it resumes in a fraction of its original boot
// time.
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"github.com/dynacut/dynacut"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	app, err := dynacut.BuildWebServer(dynacut.WebServerConfig{
		Name: "lighttpd", Port: 8080, InitRoutines: 64,
	})
	if err != nil {
		return err
	}

	// --- Machine A: boot, customize, dump -----------------------------
	bootStart := time.Now()
	sess, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, app.Config.Port)
	if err != nil {
		return err
	}
	bootTime := time.Since(bootStart)

	blocks, err := sess.ProfileFeatures(
		[]string{"GET /\n", "HEAD /\n", "OPTIONS /\n", "POST /\n", "MKCOL /d\n"},
		[]string{"PUT /f x\n", "DELETE /f\n"},
	)
	if err != nil {
		return err
	}
	errAddr, err := sess.SymbolAddr("resp_403")
	if err != nil {
		return err
	}
	cust, err := dynacut.NewCustomizer(sess.Machine, sess.PID(), dynacut.CustomizerOptions{
		RedirectTo: errAddr,
	})
	if err != nil {
		return err
	}
	if _, err := cust.DisableBlocks("webdav-write", blocks, dynacut.PolicyBlockEntry); err != nil {
		return err
	}
	fmt.Printf("machine A: booted in %v, blocked %d WebDAV blocks\n", bootTime, len(blocks))

	set, err := dynacut.Dump(sess.Machine, cust.PID(), dynacut.DumpOpts{ExecPages: true})
	if err != nil {
		return err
	}
	blob := set.Marshal()
	fmt.Printf("machine A: dumped customized image (%d bytes serialized)\n", len(blob))

	// --- Ship to machine B --------------------------------------------
	dst := dynacut.NewMachine()
	for _, name := range []string{app.Exe.Name, app.Libc.Name} {
		data, err := sess.Machine.ReadFile(name)
		if err != nil {
			return err
		}
		dst.WriteFile(name, data)
	}
	restoreStart := time.Now()
	shipped, err := dynacut.UnmarshalImages(blob)
	if err != nil {
		return err
	}
	if _, _, err := dynacut.Restore(dst, shipped); err != nil {
		return err
	}
	restoreTime := time.Since(restoreStart)
	fmt.Printf("machine B: restored in %v (%.1fx faster than machine A's boot)\n",
		restoreTime, float64(bootTime)/float64(restoreTime))

	// --- The customization travelled with the image -------------------
	probe := func(req string) string {
		resp, _, err := dst.Exchange(app.Config.Port, []byte(req), 2_000_000)
		if err != nil {
			return "error: " + err.Error()
		}
		return strings.TrimSpace(string(resp))
	}
	fmt.Printf("machine B: %-14q -> %q\n", "GET /", probe("GET /\n"))
	fmt.Printf("machine B: %-14q -> %q\n", "PUT /f evil", probe("PUT /f evil\n"))
	fmt.Println("the INT3 patches and the injected SIGTRAP handler survived migration.")
	return nil
}
