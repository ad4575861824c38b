package experiments

import (
	"fmt"

	"hmpt/internal/campaign"
	"hmpt/internal/core"
	"hmpt/internal/memsim"
	"hmpt/internal/workloads"
)

// WorkloadByName resolves a workload name to a campaign matrix row: the
// evaluated Table I benchmarks come with their paper options (seed,
// grouping, fast/full instances); any other registered workload runs
// with defaults and has no full-size instance. The CLI and the hmptd
// daemon both resolve through here, so every front-end addresses the
// same snapshot and analysis cache entries for a given name.
func WorkloadByName(name string, full bool) (campaign.Workload, error) {
	if spec, err := SpecFor(name); err == nil {
		return SpecWorkload(spec, !full), nil
	}
	if full {
		return campaign.Workload{}, fmt.Errorf("experiments: workload %q has no full-size instance (only the Table I benchmarks do)", name)
	}
	if _, err := workloads.New(name); err != nil {
		return campaign.Workload{}, err
	}
	return campaign.Workload{
		Name:    name,
		Options: core.Options{Seed: 1, ConfigTag: "default"},
		Factory: func() workloads.Workload {
			w, err := workloads.New(name)
			if err != nil {
				panic(err) // registry membership checked above
			}
			return w
		},
	}, nil
}

// KnownWorkload reports whether the name resolves at all — as a Table I
// spec or a registered workload. Serving front-ends use it to tell an
// unknown workload (not found) from an unusable request for a known one.
func KnownWorkload(name string) bool {
	if _, err := SpecFor(name); err == nil {
		return true
	}
	for _, n := range workloads.Names() {
		if n == name {
			return true
		}
	}
	return false
}

// Built once, with their fingerprints hashed once: every request and
// campaign resolving a preset name shares these columns. Nothing writes
// to their platforms, which is what keeps the cached fingerprints true.
var (
	xeonMaxPreset = campaign.Preset("xeonmax", memsim.XeonMax9468())
	dualPreset    = campaign.Preset("dual", memsim.DualXeonMax9468())
)

// PlatformByName resolves a platform preset name to a campaign matrix
// column. The empty name selects the paper's single-socket Xeon Max.
// The column's platform is shared by every caller and is read-only; a
// caller that needs a modified machine builds its own (for example from
// memsim.XeonMax9468).
func PlatformByName(name string) (campaign.Platform, error) {
	switch name {
	case "", "xeonmax", "single":
		return xeonMaxPreset, nil
	case "dual", "dual-xeonmax":
		return dualPreset, nil
	}
	return campaign.Platform{}, fmt.Errorf("experiments: unknown platform preset %q (have xeonmax, dual)", name)
}

// PlatformNames lists the platform presets PlatformByName accepts, in
// canonical form.
func PlatformNames() []string { return []string{"xeonmax", "dual"} }
