#include "api/registry.hpp"

namespace btwc {

const std::vector<NamedScenario> &
scenario_registry()
{
    // Every spec here must parse and stay fast at its default volume:
    // tests/test_api.cpp runs each entry (budget-clamped) against the
    // legacy config path, and ci.sh runs "quick" end-to-end for the
    // BENCH_scenario.json artifact.
    static const std::vector<NamedScenario> kRegistry = {
        {"quick",
         "fast smoke point: d=5 signature sampling",
         "kind=lifetime,d=5,p=3e-3,cycles=2000"},
        {"fig04",
         "Fig. 4 headline column: d=21 @ p=1e-3 signature distribution",
         "kind=lifetime,d=21,p=1e-3,cycles=20000"},
        {"fig04-d81",
         "Fig. 4 extreme column: d=81 @ p=5e-3 (slow; raise cycles=)",
         "kind=lifetime,d=81,p=5e-3,cycles=1000"},
        {"fig11",
         "Clique coverage probe: d=11 @ p=5e-3",
         "kind=lifetime,d=11,p=5e-3,cycles=20000"},
        {"fig12",
         "on-chip non-zero fraction near threshold: d=13 @ p=1e-2",
         "kind=lifetime,d=13,p=1e-2,cycles=20000"},
        {"deep-chain",
         "§8.1 three-tier hierarchy: Clique -> UF(2) -> MWPM",
         "kind=lifetime,d=9,p=5e-3,tiers=clique,uf:2,mwpm,cycles=20000"},
        {"pipeline-latency",
         "closed-loop pipeline on a narrow latency-4 off-chip link",
         "kind=lifetime,d=7,p=8e-3,mode=pipeline,policy=mwpm,latency=4,"
         "bandwidth=1,batch=8,cycles=20000"},
        {"fig14-d5",
         "Fig. 14 memory experiment: Clique+MWPM arm at d=5",
         "kind=memory,d=5,p=8e-3,arm=clique,trials=6000,failures=50"},
        {"fig14-d5-baseline",
         "Fig. 14 memory experiment: MWPM-only baseline at d=5",
         "kind=memory,d=5,p=8e-3,arm=mwpm,trials=6000,failures=50"},
        {"memory-weighted",
         "asymmetric-noise memory point with log-likelihood weights",
         "kind=memory,d=7,p=8e-3,p_meas=0.016,weighted,arm=mwpm,"
         "trials=4000,failures=50"},
        {"fig16-provisioned",
         "Fig. 16 binomial fleet on a provisioned 8-decode link",
         "kind=fleet,qubits=1000,q=4e-3,bandwidth=8,cycles=100000"},
        {"fleet-demand",
         "binomial demand histogram of a 1000-qubit machine",
         "kind=fleet,qubits=1000,q=4e-3,cycles=100000"},
        {"fleet-hotspot",
         "Poisson-binomial demand: 10% of qubits at 8x q",
         "kind=fleet,qubits=1000,q=4e-3,hot_fraction=0.1,hot_mult=8,"
         "cycles=100000"},
        {"fleet-shared-narrow",
         "12 real pipelines contending for one narrow shared link",
         "kind=exact-fleet,d=5,p=6e-3,shared,fleet=12,latency=2,"
         "bandwidth=1,cycles=3000"},
        {"fleet-private",
         "exact fleet with one zero-latency link per qubit",
         "kind=exact-fleet,d=5,p=6e-3,fleet=8,cycles=3000"},
        {"fabric-quick",
         "2-link priority fabric with a hot tenant quartile (CI gate)",
         "kind=fabric,d=3,p=6e-3,policy=mwpm,fleet=6,links=2,"
         "scheduler=priority,placement=least-loaded,hot_fraction=0.25,"
         "hot_mult=4,latency=2,bandwidth=1,deadline=6,cycles=2000"},
        {"fabric-chaos",
         "chaos fabric: flapping link, drops, surges, full degradation "
         "stack (CI gate)",
         "kind=fabric,d=3,p=6e-3,policy=mwpm,fleet=6,links=2,"
         "scheduler=deadline,placement=least-loaded,hot_fraction=0.25,"
         "hot_mult=4,latency=2,bandwidth=1,deadline=8,timeout=12,"
         "retries=2,shed=true,migrate=32,"
         "faults=outage:500:60:0;spike:150:24:6;drop:0.04;dup:0.03;"
         "corrupt:0.04;surge:300:60:2:1,cycles=2000"},
        {"fabric-contention",
         "12 tenants EDF-scheduled on one narrow link under hot-spot load",
         "kind=fabric,d=5,p=8e-3,policy=mwpm,fleet=12,links=1,"
         "scheduler=deadline,deadline=8,hot_fraction=0.25,hot_mult=3,"
         "latency=2,bandwidth=1,cycles=4000"},
        {"stream-quick",
         "sliding-window streaming decode with a UF screening tier",
         "kind=stream,d=5,p=3e-3,window=8,overlap=2,cycles=4000,"
         "tiers=uf:2,stream"},
        {"stream-soak",
         "long bare-MWPM stream at d=7 (bounded-memory soak point)",
         "kind=stream,d=7,p=2e-3,window=10,overlap=3,cycles=20000"},
    };
    return kRegistry;
}

bool
find_scenario(const std::string &name, ScenarioSpec *out,
              std::string *error)
{
    for (const NamedScenario &entry : scenario_registry()) {
        if (name == entry.name) {
            return ScenarioSpec::try_parse(entry.spec, out, error);
        }
    }
    if (error != nullptr) {
        std::string known;
        for (const NamedScenario &entry : scenario_registry()) {
            known += known.empty() ? "" : ", ";
            known += entry.name;
        }
        *error = "unknown scenario '" + name + "'; known: " + known;
    }
    return false;
}

} // namespace btwc
