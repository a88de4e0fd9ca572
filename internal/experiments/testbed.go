package experiments

import (
	"fmt"
	"strings"

	"eabrowse/internal/browser"
	"eabrowse/internal/capacity"
	"eabrowse/internal/gbrt"
	"eabrowse/internal/netsim"
	"eabrowse/internal/policy"
	"eabrowse/internal/predictor"
	"eabrowse/internal/rrc"
	"eabrowse/internal/trace"
)

// testbed is every calibrated input of the evaluation in one value: the
// radio spec of each profile (Table 5's state powers and the promotion and
// release costs behind Fig. 3 for UMTS), the link, the browser's cost model,
// the device's prediction cost (Table 7's 0.6 W CPU), the capacity model,
// Algorithm 2's parameters, the trace synthesizer's config and the
// predictor's training config. Every experiment, the fleet and the policy
// evaluator read the package's one testbed, bed; none consults a package
// default on its own, so swapping bed runs the whole evaluation under other
// physics.
type testbed struct {
	umts      rrc.Config
	lte, nr   rrc.ChainSpec
	link      netsim.Config
	cost      browser.CostModel
	device    gbrt.DeviceCost
	capacity  capacity.Config
	params    policy.Params
	trace     trace.Config
	predictor predictor.Config
}

// defaultTestbed is the paper's phone and network, as calibrated.
func defaultTestbed() testbed {
	return testbed{
		umts:      rrc.DefaultConfig(),
		lte:       rrc.DefaultLTEConfig(),
		nr:        rrc.DefaultNRConfig(),
		link:      netsim.DefaultConfig(),
		cost:      browser.DefaultCostModel(),
		device:    gbrt.DefaultDeviceCost(),
		capacity:  capacity.DefaultConfig(),
		params:    policy.DefaultParams(),
		trace:     trace.DefaultConfig(),
		predictor: predictor.DefaultConfig(),
	}
}

// bed is the testbed every experiment reads. Tests swap it while no
// experiment runs, and call ResetArtifacts around the swap: the scenario
// evaluators cache load energies.
var bed = defaultTestbed()

// radio resolves a profile name (see rrc.Profiles) to the testbed's spec.
// Unknown names fail with the valid-profile list.
func (b *testbed) radio(name string) (rrc.ModelSpec, error) {
	switch name {
	case "umts":
		return b.umts, nil
	case "lte":
		return b.lte, nil
	case "nr":
		return b.nr, nil
	}
	return nil, fmt.Errorf("rrc: unknown radio profile %q (have: %s)", name, strings.Join(rrc.Profiles(), ", "))
}
