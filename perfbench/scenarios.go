package main

import (
	"math/rand"

	"repro/coolsim"
)

// Every scenario a workload can draw comes from a finite pool, so the
// reference file covers all of them and every operation's output can be
// checked. The seed only picks draws from these pools.

var (
	layerCounts = []int{2, 4}
	policies    = []string{coolsim.PolicyLB, coolsim.PolicyMigration, coolsim.PolicyTALB}
	// workloads are the paper's Table II benchmarks.
	workloads = coolsim.Workloads()
)

// paperResTraceSeeds is the number of workload-trace seeds a paper-res
// session draws from.
const paperResTraceSeeds = 4

// paperResScenario is one paper-res session: a 2-layer Max-flow LB run
// at the paper's 115×100 grid, 301 base ticks long. The one warm-up
// tick is the set-up's first Step; the 300 measured ticks are 60 blocks
// of paperResBlock.
func paperResScenario(traceSeed int64) coolsim.Scenario {
	return coolsim.Scenario{
		Layers: 2, Cooling: coolsim.CoolingMax, Policy: coolsim.PolicyLB,
		Workload: "Web-med", Warmup: 0.1, Duration: 30, Seed: traceSeed,
		GridNX: 115, GridNY: 100,
	}
}

// sweepCoolings are the cooling modes of the sweep workload: the
// liquid-cooled half of the paper's evaluation matrix, on the 2-layer
// stack (README.md says why air and 4 layers are left out).
var sweepCoolings = []string{coolsim.CoolingMax, coolsim.CoolingVar}

// sweepScenario is one cell of the paper's evaluation matrix at the
// figures' 23×20 grid, cut short to 20 base ticks.
func sweepScenario(cooling, policy, workload string) coolsim.Scenario {
	return coolsim.Scenario{
		Layers: 2, Cooling: cooling, Policy: policy, Workload: workload,
		Warmup: 0.5, Duration: 1.5, Seed: 1, GridNX: 23, GridNY: 20,
	}
}

// sweepPerCooling is how many scenarios of each cooling mode a sweep
// batch holds: every batch has the same mix, twice the worker count,
// and only workloads and policies are drawn.
const sweepPerCooling = 2

// sweepBatch draws one sweep batch.
func sweepBatch(rng *rand.Rand) []coolsim.Scenario {
	var out []coolsim.Scenario
	for _, cooling := range sweepCoolings {
		for range sweepPerCooling {
			out = append(out, sweepScenario(cooling,
				policies[rng.Intn(len(policies))], workloads[rng.Intn(len(workloads))]))
		}
	}
	return out
}

// sweepShape is a scenario needing every artifact of the one platform
// shape the sweep batches use: the flow LUT and the TALB weight table.
func sweepShape() coolsim.Scenario {
	return sweepScenario(coolsim.CoolingVar, coolsim.PolicyTALB, "Web-med")
}

// interactiveSeeds is the number of trace seeds the service probe's
// interactive client draws from.
const interactiveSeeds = 16

// interactiveScenario is the service probe's interactive request: a
// small 2-layer variable-flow TALB run.
func interactiveScenario(traceSeed int64) coolsim.Scenario {
	return coolsim.Scenario{
		Layers: 2, Cooling: coolsim.CoolingVar, Policy: coolsim.PolicyTALB,
		Workload: "Web-med", Warmup: 0.5, Duration: 1.5, Seed: traceSeed,
		GridNX: 12, GridNY: 10,
	}
}

// bulkScenario is the member of the service probe's bulk campaigns.
func bulkScenario(layers int, cooling, policy, workload string) coolsim.Scenario {
	return coolsim.Scenario{
		Layers: layers, Cooling: cooling, Policy: policy, Workload: workload,
		Warmup: 0.5, Duration: 2, Seed: 1, GridNX: 12, GridNY: 10,
	}
}

// bulkCoolings are the cooling modes of a bulk campaign's members.
var bulkCoolings = []string{coolsim.CoolingMax, coolsim.CoolingVar}

// bulkCampaign draws one bulk campaign: a single member, so bulk work
// never holds both of the daemon's workers and an interactive run never
// queues behind it (a queue wait would split the interactive latencies
// into two populations).
func bulkCampaign(rng *rand.Rand) []coolsim.Scenario {
	return []coolsim.Scenario{bulkScenario(
		layerCounts[rng.Intn(len(layerCounts))], bulkCoolings[rng.Intn(len(bulkCoolings))],
		policies[rng.Intn(len(policies))], workloads[rng.Intn(len(workloads))])}
}

// serviceShapes returns one scenario per platform shape the service
// probe uses, each needing every artifact of its shape: the warm-up
// requests.
func serviceShapes() []coolsim.Scenario {
	var out []coolsim.Scenario
	for _, layers := range layerCounts {
		out = append(out, bulkScenario(layers, coolsim.CoolingVar, coolsim.PolicyTALB, "Web-med"))
	}
	return out
}

// referenceScenarios lists every scenario a workload or the service
// probe can draw.
func referenceScenarios() []coolsim.Scenario {
	var out []coolsim.Scenario
	for s := int64(1); s <= paperResTraceSeeds; s++ {
		out = append(out, paperResScenario(s))
	}
	for _, cooling := range sweepCoolings {
		for _, policy := range policies {
			for _, w := range workloads {
				out = append(out, sweepScenario(cooling, policy, w))
			}
		}
	}
	for s := int64(1); s <= interactiveSeeds; s++ {
		out = append(out, interactiveScenario(s))
	}
	for _, layers := range layerCounts {
		for _, cooling := range bulkCoolings {
			for _, policy := range policies {
				for _, w := range workloads {
					out = append(out, bulkScenario(layers, cooling, policy, w))
				}
			}
		}
	}
	return out
}
