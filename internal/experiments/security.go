package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"github.com/dynacut/dynacut"
	"github.com/dynacut/dynacut/internal/apps/kvstore"
	"github.com/dynacut/dynacut/internal/delf"
	"github.com/dynacut/dynacut/internal/delf/link"
)

// ---------------------------------------------------------------------------
// Table 1 — Redis CVEs mitigated by feature blocking

// CVECase describes one Table 1 row: the vulnerable command, the
// exploit request, and the guard word the exploit corrupts.
type CVECase struct {
	CVE     string
	Command string
	Exploit string
	Guard   string
	// Profile requests that exercise the vulnerable command benignly,
	// so its unique blocks can be identified.
	Profile []string
}

// CVECases are the five rows of Table 1.
var CVECases = []CVECase{
	{
		CVE: "CVE-2021-32625", Command: "STRALGO LCS",
		Exploit: "STRALGO LCS " + strings.Repeat("A", 64) + "\n",
		Guard:   "lcs_guard",
		Profile: []string{"STRALGO LCS ab\n"},
	},
	{
		CVE: "CVE-2021-29477", Command: "STRALGO LCS",
		Exploit: "STRALGO LCS " + strings.Repeat("B", 48) + "\n",
		Guard:   "lcs_guard",
		Profile: []string{"STRALGO LCS xy\n"},
	},
	{
		CVE: "CVE-2019-10193", Command: "SETRANGE",
		Exploit: "SETRANGE z 64 OVERFLOW!\n",
		Guard:   "slots_guard",
		Profile: []string{"SETRANGE a 1 x\n"},
	},
	{
		CVE: "CVE-2019-10192", Command: "SETRANGE",
		Exploit: "SETRANGE z 66 SMASHSMASH\n",
		Guard:   "slots_guard",
		Profile: []string{"SETRANGE b 2 y\n"},
	},
	{
		CVE: "CVE-2016-8339", Command: "CONFIG SET",
		Exploit: "CONFIG SET " + strings.Repeat("C", 48) + "\n",
		Guard:   "cfg_guard",
		Profile: []string{"CONFIG SET p v\n"},
	},
}

// T1Row is one measured Table 1 outcome.
type T1Row struct {
	CVE                string
	Command            string
	VanillaCompromised bool // guard corrupted (or crash) without DynaCut
	BlockedMitigated   bool // guard intact + server alive with DynaCut
	ServerAlive        bool
}

// Table1 runs every exploit against a vanilla server and against a
// DynaCut-customized server with the vulnerable command blocked.
func Table1() ([]T1Row, error) {
	var rows []T1Row
	for _, c := range CVECases {
		row, err := runCVECase(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.CVE, err)
		}
		rows = append(rows, *row)
	}
	return rows, nil
}

func runCVECase(c CVECase) (*T1Row, error) {
	row := &T1Row{CVE: c.CVE, Command: c.Command}

	// Vanilla server: run the exploit, check the guard.
	vsess, vapp, err := kvSession(dynacut.KVStoreConfig{})
	if err != nil {
		return nil, err
	}
	_, _ = vsess.Request(c.Exploit) // response irrelevant; may even crash
	vsess.Machine.Run(200_000)
	corrupted, crashed, err := guardState(vsess, vapp, c.Guard)
	if err != nil {
		return nil, err
	}
	row.VanillaCompromised = corrupted || crashed

	// Protected server: block the command's unique blocks first.
	psess, papp, err := kvSession(dynacut.KVStoreConfig{})
	if err != nil {
		return nil, err
	}
	blocks, err := psess.ProfileFeatures(WantedKV, c.Profile)
	if err != nil {
		return nil, err
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("no blocks identified for %s", c.Command)
	}
	errAddr, err := psess.SymbolAddr("resp_err")
	if err != nil {
		return nil, err
	}
	cust, err := dynacut.NewCustomizer(psess.Machine, psess.PID(), dynacut.CustomizerOptions{RedirectTo: errAddr})
	if err != nil {
		return nil, err
	}
	if _, err := cust.DisableBlocks(c.Command, blocks, dynacut.PolicyBlockEntry); err != nil {
		return nil, err
	}
	resp, err := psess.Request(c.Exploit)
	if err != nil {
		return nil, fmt.Errorf("exploit against protected server: %w", err)
	}
	corrupted, crashed, err = guardState(psess, papp, c.Guard)
	if err != nil {
		return nil, err
	}
	row.ServerAlive = !crashed
	row.BlockedMitigated = !corrupted && !crashed && strings.Contains(resp, "-ERR")
	// The read path must still work after mitigation.
	if got := psess.MustRequest("PING\n"); !strings.Contains(got, "PONG") {
		row.ServerAlive = false
	}
	return row, nil
}

// guardState reads the named guard word: returns corrupted (magic
// gone) and crashed (no live process).
func guardState(sess *dynacut.Session, app *dynacut.KVStoreApp, guard string) (bool, bool, error) {
	procs := sess.Machine.Processes()
	if len(procs) == 0 {
		return false, true, nil
	}
	sym, err := app.Exe.Symbol(guard)
	if err != nil {
		return false, false, err
	}
	v, err := procs[0].Mem().ReadU64(sym.Value)
	if err != nil {
		return false, false, err
	}
	return v != uint64(kvstore.GuardMagic), false, nil
}

// ---------------------------------------------------------------------------
// §4.2 — PLT-entry removal (ret2plt)

// PLTResult summarizes executed-PLT removal for one server.
type PLTResult struct {
	App          string
	TotalPLT     int
	ExecutedPLT  int
	RemovedPLT   int
	ForkRemoved  bool
	RemovedNames []string
}

// SecurityPLT profiles the two web servers, classifies which PLT
// entries execute only during initialization, removes them, and
// verifies the fork entry is gone on the Nginx-style server.
func SecurityPLT() ([]PLTResult, error) {
	var out []PLTResult
	for _, wcfg := range []struct {
		name    string
		workers int
	}{{"lighttpd", 0}, {"nginx", 1}} {
		res, err := pltOne(wcfg.name, wcfg.workers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wcfg.name, err)
		}
		out = append(out, *res)
	}
	return out, nil
}

func pltOne(name string, workers int) (*PLTResult, error) {
	sess, app, err := webSession(dynacut.WebServerConfig{
		Name: name, Port: 8080, Workers: workers, InitRoutines: 24,
	})
	if err != nil {
		return nil, err
	}
	serving, err := serveAndSnapshot(sess, append(append([]string{}, WantedWeb...), UndesiredWeb...))
	if err != nil {
		return nil, err
	}
	initG := sess.InitGraph()

	entries := link.PLTEntries(app.Exe)
	res := &PLTResult{App: name, TotalPLT: len(entries)}
	var removable []dynacut.AbsBlock
	var removed []delf.Symbol
	base, _ := initG.ModuleBase(app.Exe.Name)
	for _, e := range entries {
		off := e.Value - base
		inInit := initG.Contains(app.Exe.Name, off)
		inServing := serving.Contains(app.Exe.Name, off)
		if inInit || inServing {
			res.ExecutedPLT++
		}
		if inInit && !inServing {
			res.RemovedPLT++
			res.RemovedNames = append(res.RemovedNames, e.Name)
			removable = append(removable, dynacut.AbsBlock{Addr: e.Value, Size: e.Size})
			removed = append(removed, e)
			if e.Name == "fork" {
				res.ForkRemoved = true
			}
		}
	}
	if len(removable) == 0 {
		return res, nil
	}
	cust, err := dynacut.NewCustomizer(sess.Machine, sess.PID(), dynacut.CustomizerOptions{Tree: workers > 0})
	if err != nil {
		return nil, err
	}
	if _, err := cust.DisableBlocks("init-plt", removable, dynacut.PolicyWipeBlocks); err != nil {
		return nil, err
	}
	// Serving continues without those PLT entries.
	if got := sess.MustRequest("GET /\n"); !strings.Contains(got, "200") {
		return nil, fmt.Errorf("GET after PLT removal -> %q", got)
	}
	if err := matchStaticTwin(sess, app, entries, removed); err != nil {
		return nil, err
	}
	return res, nil
}

// matchStaticTwin checks the live cut against static PLT surgery: a
// copy of the binary with the removed entries cut by RemovePLTEntry
// and every kept import's GOT slot patched with its export's address
// in the loaded library must hold the bytes the customized process
// has at each trampoline and each kept slot.
func matchStaticTwin(sess *dynacut.Session, app *dynacut.WebServerApp, entries, removed []delf.Symbol) error {
	twin, err := delf.Unmarshal(app.Exe.Marshal())
	if err != nil {
		return err
	}
	root, err := sess.Root()
	if err != nil {
		return err
	}
	var libBase uint64
	for _, mod := range root.Modules() {
		if mod.Name == app.Libc.Name {
			libLo, _ := app.Libc.ImageSpan()
			libBase = mod.Lo - libLo
		}
	}
	cut := map[string]bool{}
	for _, e := range removed {
		cut[e.Name] = true
		if err := link.RemovePLTEntry(twin, e.Name); err != nil {
			return err
		}
	}
	var slots []delf.Symbol // the kept imports' GOT slots
	for _, e := range entries {
		if cut[e.Name] {
			continue
		}
		for _, rel := range twin.Relocs {
			if rel.Kind == delf.RelGOT64 && rel.Symbol == e.Name {
				slots = append(slots, delf.Symbol{Name: e.Name + "@got", Value: rel.Off, Size: 8})
			}
		}
		exp, err := app.Libc.Symbol(e.Name)
		if err != nil {
			return err
		}
		if err := link.PatchGOTEntry(twin, e.Name, libBase+exp.Value); err != nil {
			return err
		}
	}
	for _, e := range append(entries, slots...) {
		sec, err := twin.SectionAt(e.Value)
		if err != nil {
			return err
		}
		want := sec.Data[e.Value-sec.Addr : e.Value-sec.Addr+e.Size]
		if live, err := root.Mem().Read(e.Value, int(e.Size)); err != nil || !bytes.Equal(live, want) {
			return fmt.Errorf("%s: live bytes % x, static twin % x (%v)", e.Name, live, want, err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// §5 — temporal syscall specialization (seccomp via process rewriting)

// SeccompResult summarizes the syscall-specialization experiment.
type SeccompResult struct {
	App string
	// AllowedSyscalls is the size of the post-init allow list.
	AllowedSyscalls int
	// GETsServedUnderFilter shows the serving path kept working.
	GETsServedUnderFilter int
	// DeniedCallFatal records that a denied syscall killed the
	// process with SIGSYS rather than being silently ignored.
	DeniedCallFatal bool
}

// SecuritySeccomp applies the post-initialization allow list to the
// web server, checks the serving path is unaffected, then verifies a
// denied syscall (the crash-handler's implicit fork path is gone, so
// we provoke one via a fresh guest that calls fork) is fatal.
func SecuritySeccomp() (*SeccompResult, error) {
	sess, app, err := webSession(dynacut.WebServerConfig{Name: "lighttpd", Port: 8080})
	if err != nil {
		return nil, err
	}
	cust, err := dynacut.NewCustomizer(sess.Machine, sess.PID(), dynacut.CustomizerOptions{})
	if err != nil {
		return nil, err
	}
	allowed := dynacut.ServingSyscalls()
	if _, err := cust.RestrictSyscalls(allowed); err != nil {
		return nil, err
	}
	res := &SeccompResult{App: app.Config.Name, AllowedSyscalls: len(allowed)}
	for i := 0; i < 5; i++ {
		resp, err := sess.Request("GET /\n")
		if err != nil || !strings.Contains(resp, "200") {
			return nil, fmt.Errorf("GET %d under filter -> %q (%v)", i, resp, err)
		}
		res.GETsServedUnderFilter++
	}

	// Denied-call check: a guest under the same filter dies with
	// SIGSYS on fork.
	forkProbe, err := dynacut.Assemble("forkprobe", `
.text
.global _start
_start:
	mov r0, 9
	syscall
	mov r0, 1
	mov r1, 0
	syscall
`)
	if err != nil {
		return nil, err
	}
	m2 := dynacut.NewMachine()
	p2, err := m2.Load(forkProbe)
	if err != nil {
		return nil, err
	}
	p2.SetSyscallFilter(allowed)
	m2.Run(1000)
	res.DeniedCallFatal = p2.KilledBy() == dynacut.SIGSYS
	return res, nil
}

// FormatSeccomp renders the result.
func FormatSeccomp(r *SeccompResult) string {
	return fmt.Sprintf(
		"%s: %d syscalls allowed post-init; %d GETs served under the filter; denied fork fatal: %v\n",
		r.App, r.AllowedSyscalls, r.GETsServedUnderFilter, r.DeniedCallFatal)
}

// ---------------------------------------------------------------------------
// §4.2 — BROP mitigation

// BROPResult contrasts the attack against vanilla and customized
// servers.
type BROPResult struct {
	// Vanilla: every crash is followed by a respawn, the attack keeps
	// probing.
	VanillaRounds   int
	VanillaRespawns uint64
	// Protected: the respawn path (fork after init) is removed; the
	// attack stops after the first crash.
	ProtectedRounds int
}

// bropAttempts bounds the brute-force rounds the attacker tries.
const bropAttempts = 5

// SecurityBROP mounts the crash-and-respawn probe loop BROP depends
// on, before and after DynaCut removes the post-init fork path.
func SecurityBROP() (*BROPResult, error) {
	res := &BROPResult{}

	// Vanilla run.
	vsess, vapp, err := webSession(dynacut.WebServerConfig{
		Name: "nginx", Port: 8080, Workers: 1,
		RespawnWorkers: true, CrashCommand: true,
	})
	if err != nil {
		return nil, err
	}
	res.VanillaRounds = bropProbe(vsess)
	if master, merr := vsess.Root(); merr == nil {
		sym, serr := vapp.Exe.Symbol("respawns")
		if serr == nil {
			res.VanillaRespawns, _ = master.Mem().ReadU64(sym.Value)
		}
	}

	// Protected run: profile normally (no crashes seen), remove
	// everything not executed post-boot — including the respawn
	// branch and the crash handler.
	psess, papp, err := webSession(dynacut.WebServerConfig{
		Name: "nginx", Port: 8080, Workers: 1,
		RespawnWorkers: true, CrashCommand: true,
	})
	if err != nil {
		return nil, err
	}
	serving, err := serveAndSnapshot(psess, WantedWeb)
	if err != nil {
		return nil, err
	}
	full := dynacut.MergeGraphs(psess.InitGraph(), serving)
	cfg := dynacut.AnalyzeCFG(papp.Exe)
	unexec := dynacut.IdentifyUnexecutedBlocks(cfg, full, papp.Exe.Name)
	cust, err := dynacut.NewCustomizer(psess.Machine, psess.PID(), dynacut.CustomizerOptions{Tree: true})
	if err != nil {
		return nil, err
	}
	if _, err := cust.DisableBlocks("unexecuted", unexec, dynacut.PolicyBlockEntry); err != nil {
		return nil, err
	}
	res.ProtectedRounds = bropProbe(psess)
	return res, nil
}

// bropProbe crashes the worker repeatedly; each round counts only if
// the attacker can still reach a (respawned) worker afterwards.
func bropProbe(sess *dynacut.Session) int {
	rounds := 0
	for i := 0; i < bropAttempts; i++ {
		conn, err := sess.Machine.Dial(sess.Port)
		if err != nil {
			break // nobody listening: the attack is dead
		}
		if _, err := conn.Write([]byte("STACKBUG /\n")); err != nil {
			break
		}
		sess.Machine.Run(3_000_000) // worker crashes; maybe respawns
		// Probe: can we still get service?
		resp, err := sess.Request("GET /\n")
		if err != nil || !strings.Contains(resp, "200") {
			break
		}
		rounds++
	}
	return rounds
}
