// zsperf/inputs.hpp — seeded benchmark inputs and their on-disk cache.
//
// Every workload's inputs are a pure function of (input name, spec,
// seed): the longlived2024 and ris2017mar scenarios re-simulated with
// the seed in their spec. Simulation takes seconds to tens of seconds,
// so the archives are cached under a key that names the spec and the
// seed, and reloaded by later runs. Generation is never inside a
// metric; run.py invokes it as its own process before the measured one.
//
// The system under test only ever receives what a real deployment
// would: the MRT update archive (decoded through mrt::read_file) and
// the beacon schedule. The ground-truth noisy peer set travels in the
// sidecar too, but only the oracle reads it.

#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "beacon/schedule.hpp"
#include "mrt/record.hpp"
#include "scenarios/longlived2024.hpp"
#include "scenarios/ris_replication.hpp"
#include "zombie/types.hpp"

namespace zsperf {

namespace zs = zombiescope;

/// The cached input sets. kRisTop4 is derived from kRis: the records of
/// its four busiest peer sessions.
enum class InputName { kLongLived, kRis, kRisTop4 };

/// Peer sessions of the longlived2024 input. The scenario default is
/// 30; the benchmark doubles it so a pass stays seconds long even once
/// the realtime detector gets an order of magnitude faster.
inline constexpr int kLongLivedMonitorSessions = 60;

/// The longlived2024 scenario's default seed.
inline constexpr std::uint64_t kDefaultLongLivedSeed = 20240604;

zs::scenarios::LongLived2024Spec longlived_spec(std::uint64_t seed);
zs::scenarios::RisPeriodSpec ris_spec(std::uint64_t seed);

/// Everything the benchmark needs besides the archive itself.
struct InputMeta {
  std::vector<zs::beacon::BeaconEvent> events;
  /// Ground truth from the scenario (oracle only).
  std::set<zs::zombie::PeerKey> noisy_peers;
  std::uint64_t records = 0;
  /// FNV-1a 64 over the archive bytes.
  std::uint64_t digest = 0;
  /// Wall seconds the simulation took (logged, never a metric).
  double generate_seconds = 0.0;
};

struct InputPaths {
  std::string archive;  // MRT updates
  std::string meta;     // text sidecar
};

/// Cache file names for (name, spec, seed) under `dir`.
InputPaths input_paths(const std::string& dir, InputName name, std::uint64_t seed);

/// Simulates (or derives) the input set and writes it to the cache,
/// unless both files already exist. Returns the paths.
InputPaths ensure_input(const std::string& dir, InputName name, std::uint64_t seed);

void write_meta(const std::string& path, const InputMeta& meta);
/// Throws std::runtime_error on a missing or malformed sidecar.
InputMeta read_meta(const std::string& path);

/// FNV-1a 64 over a file's bytes (throws when unreadable).
std::uint64_t file_digest(const std::string& path);

/// The records of the `count` peer sessions with the most BGP4MP
/// messages (ties broken by PeerKey order), state changes included,
/// in archive order.
std::vector<zs::mrt::MrtRecord> busiest_sessions(
    const std::vector<zs::mrt::MrtRecord>& records, std::size_t count);

}  // namespace zsperf
