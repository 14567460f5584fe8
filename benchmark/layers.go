package main

import (
	"github.com/dynacut/dynacut"
)

// medians reduces per-sample layer figures to their medians.
func medians(layer map[string][]float64) map[string]float64 {
	out := map[string]float64{}
	for name, xs := range layer {
		out[name] = median(xs)
	}
	return out
}

// appendLayer records one sample of a per-layer figure.
func appendLayer(layer map[string][]float64, name string, v float64) {
	layer[name] = append(layer[name], v)
}

// rewriteLayers records the split the program itself reports for one
// rewrite in RewriteStats. Its durations are the program's wall-clock
// segments: the edit span covers handler insertion and the edit
// together, and only RewriteStats separates them.
func rewriteLayers(layer map[string][]float64, st dynacut.RewriteStats) {
	appendLayer(layer, "criu.pages_dumped", float64(st.PagesDumped))
	appendLayer(layer, "criu.pages_skipped", float64(st.PagesSkipped))
	appendLayer(layer, "criu.image_kb", float64(st.ImageBytes)/1024)
	appendLayer(layer, "crit.edit_us", us(st.CodeUpdate))
	appendLayer(layer, "crit.blocks_patched", float64(st.BlocksPatched))
	appendLayer(layer, "core.handler_us", us(st.InsertHandler))
	appendLayer(layer, "core.attempts_per_cut", float64(st.Attempts))
}

// phaseLayers fills the per-layer figures read from the traced spans:
// the program's rewrite phases (children of the benchmark's call into
// core) and the self time of that call.
func phaseLayers(out map[string]float64, s map[string]spanStats, call string) {
	for metric, phase := range map[string]string{
		"criu.checkpoint_us": "checkpoint",
		"criu.decode_us":     "decode",
		"criu.restore_us":    "restore",
		"core.validate_us":   "validate",
		"core.health_us":     "health",
	} {
		out[metric] = s[phase].durUS
	}
	out["core.self_us"] = s[call].selfUS
}

// imageLayers times Marshal and UnmarshalImages directly on a full dump
// of pid's state on m. Callers pass a clone of the live machine, since
// a dump resets the dirty-page tracking the live guest's incremental
// checkpoints depend on.
func imageLayers(rec *recorder, layer map[string][]float64, parent int, m *dynacut.Machine, pid int) error {
	set, err := dynacut.Dump(m, pid, dynacut.DumpOpts{ExecPages: true})
	if err != nil {
		return err
	}
	var blob []byte
	t, _ := rec.call("criu.marshal", parent, func() { blob = set.Marshal() })
	appendLayer(layer, "criu.marshal_us", us(t.proc))
	t, _ = rec.call("criu.unmarshal", parent, func() { _, err = dynacut.UnmarshalImages(blob) })
	appendLayer(layer, "criu.unmarshal_us", us(t.proc))
	return err
}

// cacheFlushes counts the translation-cache evictions between two
// snapshots of BlockCacheStats.
func cacheFlushes(after, before dynacut.BlockCacheStats) float64 {
	f := func(s dynacut.BlockCacheStats) uint64 { return s.PageFlushes + s.GenEvictions + s.LayoutFlush }
	return float64(f(after) - f(before))
}
