#include "inputs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <variant>

#include "mrt/codec.hpp"

namespace zsperf {

namespace fs = std::filesystem;
using zs::mrt::MrtRecord;

zs::scenarios::LongLived2024Spec longlived_spec(std::uint64_t seed) {
  zs::scenarios::LongLived2024Spec spec;
  spec.monitor_sessions = kLongLivedMonitorSessions;
  spec.seed = seed;
  return spec;
}

zs::scenarios::RisPeriodSpec ris_spec(std::uint64_t seed) {
  auto spec = zs::scenarios::period_2017mar();
  spec.seed = seed;
  return spec;
}

namespace {

// Bump when a spec or the derivation changes, so stale caches miss.
constexpr int kCacheVersion = 1;

std::string stem(InputName name) {
  switch (name) {
    case InputName::kLongLived:
      return "longlived2024-m" + std::to_string(kLongLivedMonitorSessions);
    case InputName::kRis:
      return "ris2017mar";
    case InputName::kRisTop4:
      return "ris2017mar-top4";
  }
  return "unknown";
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

void write_set(const InputPaths& paths, const std::vector<MrtRecord>& records,
               InputMeta meta) {
  // Write to temporaries and rename, so an interrupted run never leaves
  // a half-written archive that a later run would trust.
  const std::string tmp_archive = paths.archive + ".tmp";
  const std::string tmp_meta = paths.meta + ".tmp";
  zs::mrt::write_file(tmp_archive, records);
  meta.records = records.size();
  meta.digest = file_digest(tmp_archive);
  write_meta(tmp_meta, meta);
  fs::rename(tmp_archive, paths.archive);
  fs::rename(tmp_meta, paths.meta);
}

}  // namespace

InputPaths input_paths(const std::string& dir, InputName name, std::uint64_t seed) {
  const std::string base = dir + "/" + stem(name) + "-v" +
                           std::to_string(kCacheVersion) + "-s" +
                           std::to_string(seed);
  return {base + ".mrt", base + ".meta"};
}

InputPaths ensure_input(const std::string& dir, InputName name, std::uint64_t seed) {
  const InputPaths paths = input_paths(dir, name, seed);
  if (fs::exists(paths.archive) && fs::exists(paths.meta)) return paths;
  fs::create_directories(dir);
  const auto t0 = std::chrono::steady_clock::now();
  InputMeta meta;
  std::vector<MrtRecord> records;
  switch (name) {
    case InputName::kLongLived: {
      auto out = zs::scenarios::run_longlived2024(longlived_spec(seed));
      records = std::move(out.updates);
      meta.events = std::move(out.events);
      meta.noisy_peers = std::move(out.noisy_peers);
      break;
    }
    case InputName::kRis: {
      auto out = zs::scenarios::run_ris_period(ris_spec(seed));
      records = std::move(out.updates);
      meta.events = std::move(out.events);
      meta.noisy_peers = std::move(out.noisy_peers);
      break;
    }
    case InputName::kRisTop4: {
      const InputPaths full = ensure_input(dir, InputName::kRis, seed);
      const InputMeta full_meta = read_meta(full.meta);
      records = busiest_sessions(zs::mrt::read_file(full.archive), 4);
      meta.events = full_meta.events;
      std::set<zs::zombie::PeerKey> kept;
      for (const auto& record : records)
        if (const auto* msg = std::get_if<zs::mrt::Bgp4mpMessage>(&record))
          kept.insert({msg->peer_asn, msg->peer_address});
      for (const auto& peer : full_meta.noisy_peers)
        if (kept.contains(peer)) meta.noisy_peers.insert(peer);
      break;
    }
  }
  meta.generate_seconds = seconds_since(t0);
  write_set(paths, records, std::move(meta));
  std::fprintf(stderr, "[zsperf] generated %s (%zu records) in %.1f s\n",
               paths.archive.c_str(), records.size(), seconds_since(t0));
  return paths;
}

void write_meta(const std::string& path, const InputMeta& meta) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "zsperf-meta 1\n";
  out << "records " << meta.records << "\n";
  out << "digest " << meta.digest << "\n";
  out << "generate_seconds " << meta.generate_seconds << "\n";
  for (const auto& e : meta.events)
    out << "event " << e.prefix.to_string() << " " << e.announce_time << " "
        << e.withdraw_time << " " << (e.superseded ? 1 : 0) << "\n";
  for (const auto& peer : meta.noisy_peers)
    out << "noisy " << peer.asn << " " << peer.address.to_string() << "\n";
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
}

InputMeta read_meta(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string line;
  if (!std::getline(in, line) || line != "zsperf-meta 1")
    throw std::runtime_error("not a zsperf sidecar: " + path);
  InputMeta meta;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "records") {
      fields >> meta.records;
    } else if (key == "digest") {
      fields >> meta.digest;
    } else if (key == "generate_seconds") {
      fields >> meta.generate_seconds;
    } else if (key == "event") {
      std::string prefix;
      zs::beacon::BeaconEvent event;
      int superseded = 0;
      fields >> prefix >> event.announce_time >> event.withdraw_time >> superseded;
      event.prefix = zs::netbase::Prefix::parse(prefix);
      event.superseded = superseded != 0;
      meta.events.push_back(event);
    } else if (key == "noisy") {
      std::string address;
      zs::zombie::PeerKey peer;
      fields >> peer.asn >> address;
      peer.address = zs::netbase::IpAddress::parse(address);
      meta.noisy_peers.insert(peer);
    }
    if (fields.fail()) throw std::runtime_error("malformed sidecar line: " + line);
  }
  return meta;
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::uint64_t hash = 1469598103934665603ull;
  char buffer[1 << 16];
  while (in) {
    in.read(buffer, sizeof(buffer));
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      hash ^= static_cast<unsigned char>(buffer[i]);
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

std::vector<MrtRecord> busiest_sessions(const std::vector<MrtRecord>& records,
                                        std::size_t count) {
  std::map<zs::zombie::PeerKey, std::size_t> messages;
  for (const auto& record : records)
    if (const auto* msg = std::get_if<zs::mrt::Bgp4mpMessage>(&record))
      ++messages[{msg->peer_asn, msg->peer_address}];
  std::vector<std::pair<std::size_t, zs::zombie::PeerKey>> ranked;
  for (const auto& [peer, n] : messages) ranked.emplace_back(n, peer);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  std::set<zs::zombie::PeerKey> keep;
  for (std::size_t i = 0; i < ranked.size() && i < count; ++i)
    keep.insert(ranked[i].second);
  std::vector<MrtRecord> out;
  for (const auto& record : records) {
    if (const auto* msg = std::get_if<zs::mrt::Bgp4mpMessage>(&record)) {
      if (keep.contains({msg->peer_asn, msg->peer_address})) out.push_back(record);
    } else if (const auto* sc = std::get_if<zs::mrt::Bgp4mpStateChange>(&record)) {
      if (keep.contains({sc->peer_asn, sc->peer_address})) out.push_back(record);
    }
  }
  return out;
}

}  // namespace zsperf
