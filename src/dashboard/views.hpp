// View builders: focus / subtree / level (paper, Section III-B).
//
// "Employing a tree-structured KB enables fully automated performance
// monitoring ... tailoring various views."  Each builder walks the KB tree
// and emits a Dashboard whose targets reference the telemetry entries the
// KB recorded for each component.
#pragma once

#include <string_view>
#include <vector>

#include "dashboard/dashboard.hpp"
#include "kb/kb.hpp"
#include "query/engine.hpp"
#include "topology/component.hpp"
#include "tsdb/db.hpp"
#include "util/status.hpp"

namespace pmove::dashboard {

class ViewBuilder {
 public:
  explicit ViewBuilder(const kb::KnowledgeBase* knowledge_base)
      : kb_(knowledge_base) {}

  /// Focus (component) view: every telemetry entry of one component, one
  /// panel per metric.  With `extend_to_root`, panels for each ancestor's
  /// telemetry are appended — "the path navigating from a component
  /// perspective to a more generalized system perspective".
  [[nodiscard]] Expected<Dashboard> focus_view(std::string_view dtmi,
                                               bool extend_to_root = false)
      const;

  /// Subtree ((sub)system) view: one panel per component from `dtmi` down
  /// to the leaves, each panel holding that component's telemetry targets.
  [[nodiscard]] Expected<Dashboard> subtree_view(std::string_view dtmi) const;

  /// Level (type) view: all instances of one component kind, one panel per
  /// instance, each showing `metric` (a SamplerName; empty = first
  /// telemetry).
  [[nodiscard]] Expected<Dashboard> level_view(
      topology::ComponentKind kind, std::string_view metric = "") const;

  /// "P-MoVE internals" view: the monitoring pipeline watching itself.
  /// Built from the "pmove-internals" ObservationInterface the daemon
  /// registers at attach time — one panel per pmove_* self-telemetry
  /// measurement (ingest, WAL, breakers, health, query cache, ...), fed by
  /// the MetricsExporter's registry snapshots.
  [[nodiscard]] Expected<Dashboard> internals_view() const;

 private:
  const kb::KnowledgeBase* kb_;
};

/// Cross-machine level view (paper: "the level-view dashboards for
/// different processes running SpMV ... on different servers"): one panel
/// per (machine, instance).
Expected<Dashboard> cross_system_level_view(
    const std::vector<const kb::KnowledgeBase*>& kbs,
    topology::ComponentKind kind, std::string_view metric);

/// Executes every target of every panel against `db` and renders ASCII
/// sparklines (the Grafana plugin's role).  Targets run as typed queries —
/// no per-refresh parsing.
std::string render_dashboard(const Dashboard& dashboard,
                             const tsdb::TimeSeriesDb& db, int width = 60);

/// Same rendering through a QueryEngine: repeated refreshes of an unchanged
/// dashboard hit the engine's result cache instead of rescanning the
/// storage tier.
std::string render_dashboard(const Dashboard& dashboard,
                             query::QueryEngine& engine, int width = 60);

}  // namespace pmove::dashboard
