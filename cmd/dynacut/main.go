// Command dynacut is the end-to-end driver: it can run the guest
// applications, reproduce every figure/table of the paper
// ("report"), demonstrate live feature customization ("demo"), and
// dump CRIU-style checkpoint images to disk for inspection with
// cmd/crit ("dump").
//
// Usage:
//
//	dynacut demo
//	dynacut report figure2|figure6|figure7|figure8|figure9|figure10|table1|plt|brop|all
//	dynacut dump -app lighttpd|nginx|kvstore -o images.img
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/dynacut/dynacut"
	"github.com/dynacut/dynacut/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dynacut:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return errors.New("usage: dynacut demo | report <figure> | dump -app <name> -o <file>")
	}
	switch args[0] {
	case "demo":
		return demo()
	case "report":
		if len(args) < 2 {
			return errors.New("usage: dynacut report figure2|figure6|figure7|figure8|figure9|figure10|table1|plt|brop|seccomp|ablation|all")
		}
		return report(args[1])
	case "dump":
		return dump(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// demo walks the paper's headline flow interactively on stdout.
func demo() error {
	fmt.Println("== DynaCut demo: dynamic WebDAV-write removal on a Lighttpd-like guest ==")
	app, err := dynacut.BuildWebServer(dynacut.WebServerConfig{Name: "lighttpd", Port: 8080})
	if err != nil {
		return err
	}
	sess, err := dynacut.StartServer(app.Exe, []*dynacut.Binary{app.Libc}, app.Config.Port)
	if err != nil {
		return err
	}
	fmt.Printf("booted %s: %d init-phase blocks traced\n", app.Config.Name, len(sess.InitLog.Blocks))

	blocks, err := sess.ProfileFeatures(experiments.WantedWeb, experiments.UndesiredWeb)
	if err != nil {
		return err
	}
	fmt.Printf("trace diff: %d basic blocks unique to PUT/DELETE\n", len(blocks))

	errAddr, err := sess.SymbolAddr("resp_403")
	if err != nil {
		return err
	}
	cust, err := dynacut.NewCustomizer(sess.Machine, sess.PID(), dynacut.CustomizerOptions{RedirectTo: errAddr})
	if err != nil {
		return err
	}
	stats, err := cust.DisableBlocks("webdav-write", blocks, dynacut.PolicyBlockEntry)
	if err != nil {
		return err
	}
	fmt.Printf("rewrote process in %v (checkpoint %v, int3 %v, handler %v, restore %v)\n",
		stats.Total(), stats.Checkpoint, stats.CodeUpdate, stats.InsertHandler, stats.Restore)

	show := func(req string) error {
		resp, err := sess.Request(req)
		if err != nil {
			return err
		}
		fmt.Printf("  %-18q -> %q\n", strings.TrimSuffix(req, "\n"), strings.TrimSuffix(resp, "\n"))
		return nil
	}
	fmt.Println("with PUT/DELETE disabled:")
	for _, r := range []string{"GET /\n", "PUT /f data\n", "DELETE /f\n"} {
		if err := show(r); err != nil {
			return err
		}
	}
	if _, err := cust.EnableBlocks("webdav-write"); err != nil {
		return err
	}
	fmt.Println("after re-enabling:")
	for _, r := range []string{"PUT /f data\n", "GET /f\n"} {
		if err := show(r); err != nil {
			return err
		}
	}
	fmt.Println("server never restarted; live connection state preserved throughout.")
	return nil
}

func report(which string) error {
	type job struct {
		name string
		fn   func() (string, error)
	}
	jobs := []job{
		{"figure2", func() (string, error) {
			rows, err := experiments.Figure2()
			if err != nil {
				return "", err
			}
			s := experiments.FormatF2(rows)
			for _, r := range rows {
				s += fmt.Sprintf("\n%s liveness map ('#' hot, 'i' init-only, '.' unused):\n%s\n", r.Program, r.Map)
			}
			return s, nil
		}},
		{"figure6", func() (string, error) {
			rows, err := experiments.Figure6()
			if err != nil {
				return "", err
			}
			return experiments.FormatF6(rows), nil
		}},
		{"figure7", func() (string, error) {
			rows, err := experiments.Figure7(true)
			if err != nil {
				return "", err
			}
			return experiments.FormatF7(rows), nil
		}},
		{"figure8", func() (string, error) {
			res, err := experiments.Figure8()
			if err != nil {
				return "", err
			}
			return experiments.FormatF8(res), nil
		}},
		{"figure9", func() (string, error) {
			rows, err := experiments.Figure9(true)
			if err != nil {
				return "", err
			}
			return experiments.FormatF9(rows), nil
		}},
		{"figure10", func() (string, error) {
			res, err := experiments.Figure10()
			if err != nil {
				return "", err
			}
			return experiments.FormatF10(res), nil
		}},
		{"table1", func() (string, error) {
			rows, err := experiments.Table1()
			if err != nil {
				return "", err
			}
			return experiments.FormatT1(rows), nil
		}},
		{"plt", func() (string, error) {
			rows, err := experiments.SecurityPLT()
			if err != nil {
				return "", err
			}
			return experiments.FormatPLT(rows), nil
		}},
		{"brop", func() (string, error) {
			res, err := experiments.SecurityBROP()
			if err != nil {
				return "", err
			}
			return experiments.FormatBROP(res), nil
		}},
		{"seccomp", func() (string, error) {
			res, err := experiments.SecuritySeccomp()
			if err != nil {
				return "", err
			}
			return experiments.FormatSeccomp(res), nil
		}},
		{"ablation", func() (string, error) {
			rows, err := experiments.AblationTraceQuality()
			if err != nil {
				return "", err
			}
			return experiments.FormatAblation(rows), nil
		}},
	}
	ran := false
	for _, j := range jobs {
		if which != "all" && which != j.name {
			continue
		}
		ran = true
		out, err := j.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		fmt.Printf("=== %s ===\n%s\n", j.name, out)
	}
	if !ran {
		return fmt.Errorf("unknown report %q", which)
	}
	return nil
}

func dump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ContinueOnError)
	appName := fs.String("app", "lighttpd", "guest to dump: lighttpd, nginx, kvstore")
	out := fs.String("o", "images.img", "output image file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// A dump needs only the guest parked on its accept loop, so it boots
	// with the paper's §5 automation: the end of initialization is the
	// guest's first accept, and no nudge from the guest is needed.
	var (
		sess *dynacut.Session
		err  error
	)
	switch *appName {
	case "lighttpd", "nginx":
		workers := 0
		if *appName == "nginx" {
			workers = 1
		}
		var app *dynacut.WebServerApp
		app, err = dynacut.BuildWebServer(dynacut.WebServerConfig{Name: *appName, Port: 8080, Workers: workers})
		if err == nil {
			sess, err = dynacut.StartServerAuto(app.Exe, []*dynacut.Binary{app.Libc}, 8080)
		}
	case "kvstore":
		var app *dynacut.KVStoreApp
		app, err = dynacut.BuildKVStore(dynacut.KVStoreConfig{})
		if err == nil {
			sess, err = dynacut.StartServerAuto(app.Exe, []*dynacut.Binary{app.Libc}, app.Config.Port)
		}
	default:
		return fmt.Errorf("unknown app %q", *appName)
	}
	if err != nil {
		return err
	}
	set, err := dynacut.Dump(sess.Machine, sess.PID(), dynacut.DumpOpts{ExecPages: true, Tree: true})
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, set.Marshal(), 0o644); err != nil {
		return err
	}
	fmt.Printf("dumped %s (%d process(es)) to %s\n", *appName, len(set.PIDs), *out)
	return nil
}
