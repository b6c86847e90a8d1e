#include "ensemble/engine.hpp"

#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

#include "ensemble/sweep.hpp"
#include "linalg/semicoarsening_amg.hpp"
#include "physics/stokes_fo_problem.hpp"
#include "portability/common.hpp"
#include "timestepping/forecast_driver.hpp"
#include "util/fp_format.hpp"
#include "util/json_writer.hpp"

namespace mali::ensemble {

namespace {

/// Non-owning preconditioner wrapper the ForecastDriver's make_precond
/// factory hands out, so every member's Newton solves share ONE
/// SemicoarseningAmg instead of each driver building its own.  The shared
/// AMG must outlive every driver (the engine owns both).
class SharedPrecond final : public linalg::Preconditioner {
 public:
  explicit SharedPrecond(linalg::Preconditioner& inner) : inner_(&inner) {}
  void compute(const linalg::CrsMatrix& A) override { inner_->compute(A); }
  void compute(const linalg::LinearOperator& A) override {
    inner_->compute(A);
  }
  void apply(const std::vector<double>& r,
             std::vector<double>& z) const override {
    inner_->apply(r, z);
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  linalg::Preconditioner* inner_;
};

int total_newton_iters(const timestepping::ForecastResult& r) {
  int total = 0;
  for (const auto& row : r.ledger) total += row.newton_iters;
  return total;
}

/// Nearest already-completed member in sweep-index space (L1 distance over
/// the four dimensions, ties to the lower member id); SIZE_MAX when none.
std::size_t nearest_donor(
    const std::vector<std::vector<std::size_t>>& tuples,
    const std::vector<bool>& completed, std::size_t id) {
  std::size_t best = std::numeric_limits<std::size_t>::max();
  std::size_t best_dist = std::numeric_limits<std::size_t>::max();
  for (std::size_t j = 0; j < completed.size(); ++j) {
    if (!completed[j] || j == id) continue;
    std::size_t dist = 0;
    for (std::size_t d = 0; d < tuples[id].size(); ++d) {
      const std::size_t a = tuples[id][d], b = tuples[j][d];
      dist += a > b ? a - b : b - a;
    }
    if (dist < best_dist) {
      best_dist = dist;
      best = j;
    }
  }
  return best;
}

}  // namespace

EnsembleEngine::EnsembleEngine(EnsembleManifest manifest, EnsembleConfig cfg)
    : manifest_(std::move(manifest)),
      cfg_(std::move(cfg)),
      // --no-cache touches no disk: not even the cache directory.
      cache_(cfg_.use_cache ? cfg_.cache_dir : "") {
  MALI_CHECK_MSG(cfg_.ranks_per_group >= 1,
                 "ensemble: ranks_per_group must be >= 1");
}

std::string EnsembleEngine::member_canonical_key(const EnsembleManifest& m,
                                                 const MemberParams& p,
                                                 int ranks) {
  std::string key = "maliensr-v2";
  key += "|mesh:dx_km=" + util::format_double(m.dx_km) +
         ",layers=" + std::to_string(m.layers);
  key += "|run:years=" + util::format_double(m.years) +
         ",velocity_every=" + std::to_string(m.velocity_every) +
         ",newton_max_iters=" + std::to_string(m.newton_max_iters) +
         ",newton_tol=" + util::format_double(m.newton_tol) +
         ",ranks=" + std::to_string(ranks);
  key += "|member:glen_n=" + util::format_double(p.glen_n) +
         ",glen_A=" + util::format_double(p.glen_A) +
         ",friction_scale=" + util::format_double(p.friction_scale) +
         ",forcing=" + p.forcing;
  return key;
}

EnsembleEngine::RunOutput EnsembleEngine::run() {
  const auto t0 = std::chrono::steady_clock::now();

  RunOutput out;
  out.members = expand_members(manifest_);
  const std::size_t n = out.members.size();
  out.records.resize(n);
  out.stats.members = n;
  out.schedule = schedule_members(
      n, static_cast<std::size_t>(manifest_.rank_groups));
  const auto order = out.schedule.execution_order();
  const auto tuples = cross_product_indices(
      {manifest_.glen_n.size(), manifest_.glen_A.size(),
       manifest_.friction_scale.size(), manifest_.forcing.size()});

  // ---- amortized setup: ONE problem (mesh/partition/coloring/worksets)
  // and ONE AMG, its hierarchy structure replayed, for every member ----
  physics::StokesFOConfig pcfg;
  pcfg.dx_m = manifest_.dx_km * 1.0e3;
  pcfg.n_layers = manifest_.layers;
  physics::StokesFOProblem problem(pcfg);
  const physics::PhysicalConstants base_constants =
      problem.config().constants;

  linalg::SemicoarseningAmg shared_amg(problem.extrusion_info());

  std::vector<bool> completed(n, false);

  for (const std::size_t id : order) {
    const MemberParams& p = out.members[id];
    const std::string key =
        member_canonical_key(manifest_, p, cfg_.ranks_per_group);

    if (cfg_.use_cache) {
      if (const MemberRecord* hit = cache_.find(key)) {
        out.records[id] = *hit;
        completed[id] = true;
        ++out.stats.cache_hits;
        if (cfg_.verbose) {
          std::printf("  member %zu: cache hit (%s)\n", id,
                      ResultCache::key_hex(ResultCache::fnv1a(key)).c_str());
        }
        continue;
      }
    }

    // Member parameters onto the shared problem.  Both setters are pure in
    // their argument (no state accumulates across members), so execution
    // order cannot leak into a member's physics.
    physics::PhysicalConstants c = base_constants;
    c.glen_n = p.glen_n;
    c.glen_A = p.glen_A;
    problem.set_constants(c);
    problem.set_basal_friction_scale(p.friction_scale);

    timestepping::ForecastConfig fcfg;
    fcfg.years = manifest_.years;
    fcfg.velocity_every = manifest_.velocity_every;
    fcfg.forcing = p.forcing;
    fcfg.thermal_enabled = false;  // members stay independent of each other
    fcfg.newton.max_iters = manifest_.newton_max_iters;
    fcfg.newton.abs_tol = manifest_.newton_tol;
    // Purely absolute convergence: a relative criterion targets
    // rel_tol * ||F(start)||, which depends on the start point — a warm
    // start would then converge to a different root than a cold one,
    // breaking the warm == cold (within tol) determinism contract.
    fcfg.newton.rel_tol = 0.0;
    fcfg.ranks = cfg_.ranks_per_group;
    if (cfg_.ranks_per_group <= 1) {
      linalg::Preconditioner* amg = &shared_amg;
      fcfg.make_precond = [amg](const physics::StokesFOProblem&) {
        return std::unique_ptr<linalg::Preconditioner>(
            std::make_unique<SharedPrecond>(*amg));
      };
    }

    if (cfg_.warm_start) {
      const std::size_t donor = nearest_donor(tuples, completed, id);
      if (donor != std::numeric_limits<std::size_t>::max() &&
          out.records[donor].U.size() == problem.n_dofs()) {
        fcfg.initial_U = out.records[donor].U;
        ++out.stats.warm_starts;
        if (cfg_.verbose) {
          std::printf("  member %zu: warm start from member %zu\n", id,
                      donor);
        }
      }
    }

    // Per-member injector persists ACROSS retry attempts: a one-shot spec
    // fires on the first attempt only (the retry runs clean — the
    // transient-fault model); a repeat spec keeps firing and the member
    // ends quarantined (the permanent-fault model).  The member salt
    // decorrelates which dof each member poisons.
    std::unique_ptr<resilience::FaultInjector> injector;
    if (cfg_.inject_fault &&
        (cfg_.fault_member < 0 ||
         static_cast<std::size_t>(cfg_.fault_member) == id)) {
      resilience::FaultSpec spec = cfg_.fault;
      spec.member = static_cast<unsigned>(id + 1);
      injector = std::make_unique<resilience::FaultInjector>(spec);
    }
    if (cfg_.resilience && cfg_.ranks_per_group <= 1) {
      fcfg.newton.recovery.enabled = true;
    }
    if (cfg_.resilience && cfg_.ranks_per_group > 1) {
      // Distributed members recover through the coordinated restart loop
      // (the per-rank ladder would desynchronize the SPMD lockstep).
      fcfg.dist.solver_guards = true;
      fcfg.dist.checkpoint = true;
      fcfg.dist.max_restarts = std::max(fcfg.dist.max_restarts, 2);
    }
    fcfg.injector = injector.get();

    const int max_attempts = 1 + std::max(0, cfg_.member_retries);
    // Member failures are absorbed (retry, then quarantine) only when the
    // caller opted into degradation; a plain run keeps the documented
    // contract that configuration errors (malformed forcing specs, solver
    // misconfiguration) throw out of run().
    const bool degrade = cfg_.member_retries > 0 || cfg_.inject_fault ||
                         cfg_.resilience || cfg_.before_attempt != nullptr;
    timestepping::ForecastResult r;
    bool member_ok = false;
    int attempts = 0;
    std::string fault_msg;
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
      ++attempts;
      if (attempt > 0 && cfg_.retry_backoff_s > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            cfg_.retry_backoff_s * static_cast<double>(1 << (attempt - 1))));
      }
      try {
        if (cfg_.before_attempt) cfg_.before_attempt(id, attempt);
        timestepping::ForecastDriver driver(problem, fcfg);
        r = driver.run();
        member_ok = true;
        break;
      } catch (const Error& e) {
        if (!degrade) throw;
        fault_msg = e.what();
        if (cfg_.verbose) {
          std::printf("  member %zu: attempt %d failed: %s\n", id,
                      attempt + 1, e.what());
        }
      }
    }

    if (!member_ok) {
      // Quarantine: record the failure, keep the batch going.  The record
      // carries no fields, is never cached, and never donates warm starts.
      MemberRecord rec;
      rec.canonical = key;
      rec.status = "quarantined";
      rec.attempts = attempts;
      rec.fault = fault_msg;
      out.records[id] = std::move(rec);
      ++out.stats.quarantined;
      if (cfg_.verbose) {
        std::printf("  member %zu: quarantined after %d attempts\n", id,
                    attempts);
      }
      continue;
    }

    MemberRecord rec;
    rec.canonical = key;
    if (attempts > 1) {
      rec.status = "retried";
      rec.attempts = attempts;
      rec.fault = fault_msg;
      ++out.stats.retried;
    }
    rec.steps = r.steps;
    rec.velocity_solves = r.velocity_solves;
    rec.newton_iters = total_newton_iters(r);
    rec.rejections = r.rejections;
    rec.volume_initial = r.volume_initial;
    rec.volume_final = r.volume_final;
    rec.mean_velocity = r.mean_velocity;
    rec.max_mass_residual = r.max_mass_residual;
    rec.U = r.U;
    rec.H = r.H;
    out.records[id] = std::move(rec);
    completed[id] = true;
    ++out.stats.cache_misses;
    if (cfg_.use_cache) cache_.store(out.records[id]);
    if (cfg_.verbose) {
      std::printf("  member %zu: %d steps, %d newton iters, vol %.6e\n", id,
                  out.records[id].steps, out.records[id].newton_iters,
                  out.records[id].volume_final);
    }
  }

  out.stats.amg_builds = shared_amg.hierarchy_builds();
  out.stats.amg_reuses = shared_amg.structure_reuses();
  out.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

std::string EnsembleEngine::members_json(const RunOutput& out) {
  util::JsonWriter w;
  w.begin_array();
  for (std::size_t id = 0; id < out.members.size(); ++id) {
    const MemberParams& p = out.members[id];
    const MemberRecord& r = out.records[id];
    w.begin_object();
    w.key("id").value(id);
    w.key("key").value(ResultCache::key_hex(ResultCache::fnv1a(r.canonical)));
    w.key("status").value(r.status);
    w.key("attempts").value(r.attempts);
    w.key("fault").value(r.fault);
    w.key("glen_n").value(p.glen_n);
    w.key("glen_A").value(p.glen_A);
    w.key("friction_scale").value(p.friction_scale);
    w.key("forcing").value(p.forcing);
    w.key("steps").value(r.steps);
    w.key("velocity_solves").value(r.velocity_solves);
    w.key("newton_iters").value(r.newton_iters);
    w.key("rejections").value(r.rejections);
    w.key("volume_initial").value(r.volume_initial);
    w.key("volume_final").value(r.volume_final);
    w.key("mean_velocity").value(r.mean_velocity);
    w.key("max_mass_residual").value(r.max_mass_residual);
    w.end_object();
  }
  w.end_array();
  return w.str();
}

std::string EnsembleEngine::results_json(const RunOutput& out,
                                         const EnsembleManifest& m,
                                         bool include_stats) {
  util::JsonWriter w;
  w.begin_object();
  w.key("schema").value("mali-ensemble-results-v2");  // v2: member status keys
  w.key("name").value(m.name);
  w.key("manifest").value(m.canonical());
  w.key("n_members").value(out.members.size());
  w.key("schedule").begin_array();
  for (const auto& g : out.schedule.groups) {
    w.begin_array();
    for (const std::size_t id : g) w.value(id);
    w.end_array();
  }
  w.end_array();
  w.key("members").value_fragment(members_json(out));
  if (include_stats) {
    w.key("stats").begin_object();
    w.key("members").value(out.stats.members);
    w.key("cache_hits").value(out.stats.cache_hits);
    w.key("cache_misses").value(out.stats.cache_misses);
    w.key("warm_starts").value(out.stats.warm_starts);
    w.key("retried").value(out.stats.retried);
    w.key("quarantined").value(out.stats.quarantined);
    w.key("amg_builds").value(out.stats.amg_builds);
    w.key("amg_reuses").value(out.stats.amg_reuses);
    w.key("wall_seconds").value(out.stats.wall_seconds);
    w.end_object();
  }
  w.end_object();
  return w.str();
}

}  // namespace mali::ensemble
