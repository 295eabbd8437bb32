#include "dspp/separable_window.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/trace.hpp"

namespace gp::dspp {

using linalg::Vector;

namespace {

/// Safeguard iterations per constraint of the network QP. The primal active
/// set method adds or drops one working constraint per step, so a few passes
/// over the rows is generous; the cap only guards against degenerate
/// cycling (the network is then left uncertified and ADMM solves the window).
constexpr int kSafeguardStepsPerRow = 4;
/// A safeguard step no longer than this (relative to 1 + ||x||_inf) is the
/// zero step of N&W Alg. 16.3: the iterate minimizes on its working set.
constexpr double kZeroStep = 1e-13;
/// Reduced-system pivots below this (relative to the largest diagonal) mark
/// a singular system: an active demand row with no free pair.
constexpr double kPivotFloor = 1e-13;
/// Work (sum of n_v W) a pool lane must get before the solve spreads to it.
/// A unit costs ~0.2 us and waking a lane tens of us, so paper_full (370
/// units) stays on the calling thread and scale_smoke (3,600) takes 3 lanes.
constexpr std::size_t kWorkPerLane = 1024;

/// Bitwise equality of two equally long runs of doubles (-0.0 != 0.0).
bool same_bits(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

}  // namespace

bool SeparableWindow::applies_to(const DsppModel& model, const PairIndex& pairs) {
  for (std::size_t pair = 0; pair < pairs.num_pairs(); ++pair) {
    if (!(model.reconfig_cost[pairs.datacenter_of(pair)] > 0.0)) return false;
  }
  return true;
}

SeparableWindow::SeparableWindow(const DsppModel& model, const PairIndex& pairs)
    : model_(&model), pairs_(&pairs) {
  require(applies_to(model, pairs), "SeparableWindow: every pair needs c_l > 0");
  const std::size_t num_v = pairs.num_access_networks();
  networks_.resize(num_v);
  local_of_pair_.assign(pairs.num_pairs(), 0);
  for (std::size_t v = 0; v < num_v; ++v) {
    Network& net = networks_[v];
    net.pairs = pairs.pairs_of_access_network(v);
    std::sort(net.pairs.begin(), net.pairs.end());
    for (std::size_t j = 0; j < net.pairs.size(); ++j) {
      const std::size_t pair = net.pairs[j];
      local_of_pair_[pair] = j;
      net.inv_a.push_back(1.0 / pairs.coefficient(pair));
      net.two_c.push_back(2.0 * model.reconfig_cost[pairs.datacenter_of(pair)]);
    }
  }
}

void SeparableWindow::size_network(Network& net) const {
  const std::size_t w = horizon_;
  const std::size_t nw = net.pairs.size() * w;
  for (Vector* v : {&net.q, &net.x, &net.mu, &net.grad, &net.step, &net.ldl_d, &net.ldl_l,
                    &net.hr}) {
    v->assign(nw, 0.0);
  }
  for (Vector* v : {&net.demand, &net.lambda, &net.nu, &net.schur_rhs}) v->assign(w, 0.0);
  net.hinv.assign(nw * w, 0.0);
  net.schur.assign(w * w, 0.0);
  net.bound.assign(nw, 0);
  net.active.assign(w, 0);
  net.visited.assign(static_cast<std::size_t>(kPdasMaxIterations) * (nw + w), 0);
  net.cheapest.assign(w, 0);
  net.slot.assign(nw, -1);
  net.free_t.assign(nw, 0);
  net.free_n.assign(net.pairs.size(), 0);
  net.rows.assign(w, 0);
  net.has_active_set = false;
}

void SeparableWindow::load(Network& net, std::size_t v, const WindowInputs& inputs) const {
  const std::size_t w = horizon_;
  const std::size_t n = net.pairs.size();
  for (std::size_t t = 0; t < w; ++t) {
    net.demand[t] = inputs.demand[t][v];
    double best = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double price = inputs.price[t][pairs_->datacenter_of(net.pairs[j])];
      const double per_request = price / net.inv_a[j];
      if (j == 0 || per_request < best) {
        best = per_request;
        net.cheapest[t] = j;
      }
      net.q[j * w + t] = price;
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    net.q[j * w] -= net.two_c[j] * inputs.initial_state[net.pairs[j]];
  }
}

void SeparableWindow::cold_sets(Network& net) const {
  const std::size_t w = horizon_;
  for (std::size_t t = 0; t < w; ++t) {
    const bool positive = net.demand[t] > 0.0;
    net.active[t] = positive ? 1 : 0;
    for (std::size_t j = 0; j < net.pairs.size(); ++j) {
      net.bound[j * w + t] = positive && j == net.cheapest[t] ? 0 : 1;
    }
  }
}

void SeparableWindow::shift_sets(Network& net) const {
  const std::size_t w = horizon_;
  for (std::size_t t = 0; t + 1 < w; ++t) {
    net.active[t] = net.active[t + 1];
    for (std::size_t j = 0; j < net.pairs.size(); ++j) {
      net.bound[j * w + t] = net.bound[j * w + t + 1];
    }
  }
}

bool SeparableWindow::drop_empty_rows(Network& net) const {
  const std::size_t w = horizon_;
  for (std::size_t t = 0; t < w; ++t) {
    bool any_free = false;
    for (std::size_t j = 0; j < net.pairs.size() && !any_free; ++j) {
      any_free = net.bound[j * w + t] == 0;
    }
    if (any_free) continue;
    if (net.demand[t] > 0.0) return false;
    net.active[t] = 0;
  }
  return true;
}

double SeparableWindow::gradient_at(const Network& net, const Vector& z, const Vector& r,
                                    std::size_t j, std::size_t t) const {
  const std::size_t w = horizon_;
  const std::size_t i = j * w + t;
  double tz = (t + 1 < w ? 2.0 : 1.0) * z[i];
  if (t > 0) tz -= z[i - 1];
  if (t + 1 < w) tz -= z[i + 1];
  return net.two_c[j] * tz + r[i];
}

bool SeparableWindow::solve_reduced(Network& net, const Vector& r, bool demand_rhs,
                                    Vector& z) const {
  const std::size_t w = horizon_;
  const std::size_t n = net.pairs.size();
  // Per pair: LDL' of H restricted to its free periods (a principal
  // submatrix of a tridiagonal, so tridiagonal in the compressed order),
  // then H_FF^{-1} r_F and the columns H_FF^{-1} e_a of the active rows.
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t base = j * w;
    std::int32_t k = 0;
    for (std::size_t t = 0; t < w; ++t) {
      if (net.bound[base + t] != 0) {
        net.slot[base + t] = -1;
        continue;
      }
      net.slot[base + t] = k;
      net.free_t[base + static_cast<std::size_t>(k)] = static_cast<std::int32_t>(t);
      ++k;
    }
    net.free_n[j] = k;
    const double c2 = net.two_c[j];
    double* d = &net.ldl_d[base];
    double* l = &net.ldl_l[base];
    const std::int32_t* ft = &net.free_t[base];
    for (std::int32_t a = 0; a < k; ++a) {
      const auto t = static_cast<std::size_t>(ft[a]);
      const double diag = c2 * (t + 1 < w ? 2.0 : 1.0);
      if (a == 0) {
        l[a] = 0.0;
        d[a] = diag;
      } else {
        const double off = ft[a - 1] + 1 == ft[a] ? -c2 : 0.0;
        l[a] = off / d[a - 1];
        d[a] = diag - l[a] * off;
      }
    }
    // Solves H_FF y = y in place (compressed order, length k).
    const auto ldl_solve = [&](double* y) {
      for (std::int32_t a = 1; a < k; ++a) y[a] -= l[a] * y[a - 1];
      for (std::int32_t a = 0; a < k; ++a) y[a] /= d[a];
      for (std::int32_t a = k - 2; a >= 0; --a) y[a] -= l[a + 1] * y[a + 1];
    };
    double* hr = &net.hr[base];
    for (std::int32_t a = 0; a < k; ++a) hr[a] = r[base + static_cast<std::size_t>(ft[a])];
    ldl_solve(hr);
    for (std::int32_t a = 0; a < k; ++a) {
      if (net.active[static_cast<std::size_t>(ft[a])] == 0) continue;
      double* col = &net.hinv[(base + static_cast<std::size_t>(a)) * w];
      std::fill(col, col + k, 0.0);
      col[a] = 1.0;
      ldl_solve(col);
    }
  }

  // Schur complement S = G H_FF^{-1} G' over the active rows, and its
  // right-hand side b + G H_FF^{-1} r_F.
  std::size_t num_rows = 0;
  for (std::size_t t = 0; t < w; ++t) {
    if (net.active[t] != 0) net.rows[num_rows++] = static_cast<std::int32_t>(t);
  }
  double* s = net.schur.data();
  double* rhs = net.schur_rhs.data();
  std::fill(s, s + num_rows * num_rows, 0.0);
  for (std::size_t a = 0; a < num_rows; ++a) {
    rhs[a] = demand_rhs ? net.demand[static_cast<std::size_t>(net.rows[a])] : 0.0;
  }
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t base = j * w;
    const double g = net.inv_a[j];
    for (std::size_t a = 0; a < num_rows; ++a) {
      const std::int32_t ka = net.slot[base + static_cast<std::size_t>(net.rows[a])];
      if (ka < 0) continue;
      rhs[a] += g * net.hr[base + static_cast<std::size_t>(ka)];
      const double* col = &net.hinv[(base + static_cast<std::size_t>(ka)) * w];
      for (std::size_t b = 0; b <= a; ++b) {
        const std::int32_t kb = net.slot[base + static_cast<std::size_t>(net.rows[b])];
        if (kb >= 0) s[a * num_rows + b] += g * g * col[kb];
      }
    }
  }
  // Dense Cholesky of S (lower triangle, in place) and the solve for nu.
  double max_diag = 0.0;
  for (std::size_t a = 0; a < num_rows; ++a) max_diag = std::max(max_diag, s[a * num_rows + a]);
  for (std::size_t a = 0; a < num_rows; ++a) {
    for (std::size_t b = 0; b <= a; ++b) {
      double sum = s[a * num_rows + b];
      for (std::size_t c = 0; c < b; ++c) sum -= s[a * num_rows + c] * s[b * num_rows + c];
      if (a == b) {
        if (!(sum > kPivotFloor * max_diag)) return false;
        s[a * num_rows + a] = std::sqrt(sum);
      } else {
        s[a * num_rows + b] = sum / s[b * num_rows + b];
      }
    }
  }
  for (std::size_t a = 0; a < num_rows; ++a) {
    double sum = rhs[a];
    for (std::size_t c = 0; c < a; ++c) sum -= s[a * num_rows + c] * rhs[c];
    rhs[a] = sum / s[a * num_rows + a];
  }
  for (std::size_t a = num_rows; a-- > 0;) {
    double sum = rhs[a];
    for (std::size_t c = a + 1; c < num_rows; ++c) sum -= s[c * num_rows + a] * rhs[c];
    rhs[a] = sum / s[a * num_rows + a];
  }
  std::fill(net.nu.begin(), net.nu.end(), 0.0);
  for (std::size_t a = 0; a < num_rows; ++a) net.nu[static_cast<std::size_t>(net.rows[a])] = rhs[a];

  // z_F = H_FF^{-1} (G' nu - r_F); z is 0 on the bound entries.
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t base = j * w;
    const std::int32_t k = net.free_n[j];
    for (std::size_t t = 0; t < w; ++t) z[base + t] = 0.0;
    for (std::int32_t b = 0; b < k; ++b) {
      z[base + static_cast<std::size_t>(net.free_t[base + static_cast<std::size_t>(b)])] =
          -net.hr[base + static_cast<std::size_t>(b)];
    }
    const double g = net.inv_a[j];
    for (std::size_t a = 0; a < num_rows; ++a) {
      const std::int32_t ka = net.slot[base + static_cast<std::size_t>(net.rows[a])];
      if (ka < 0) continue;
      const double weight = g * rhs[a];
      const double* col = &net.hinv[(base + static_cast<std::size_t>(ka)) * w];
      for (std::int32_t b = 0; b < k; ++b) {
        z[base + static_cast<std::size_t>(net.free_t[base + static_cast<std::size_t>(b)])] +=
            weight * col[b];
      }
    }
  }
  return true;
}

bool SeparableWindow::solve_on_sets(Network& net) const {
  if (!solve_reduced(net, net.q, /*demand_rhs=*/true, net.x)) return false;
  const std::size_t w = horizon_;
  for (std::size_t t = 0; t < w; ++t) net.lambda[t] = net.nu[t];
  for (std::size_t j = 0; j < net.pairs.size(); ++j) {
    for (std::size_t t = 0; t < w; ++t) {
      const std::size_t i = j * w + t;
      net.mu[i] = net.bound[i] != 0
                      ? gradient_at(net, net.x, net.q, j, t) - net.inv_a[j] * net.lambda[t]
                      : 0.0;
    }
  }
  return true;
}

void SeparableWindow::scales(const Network& net, double& primal, double& dual) const {
  const std::size_t w = horizon_;
  const double row_scale = *std::max_element(net.inv_a.begin(), net.inv_a.end());
  primal = 0.0;
  for (const double d : net.demand) primal = std::max(primal, d / row_scale);
  for (const double x : net.x) primal = std::max(primal, std::abs(x));
  primal += 1.0;
  dual = 0.0;
  for (std::size_t j = 0; j < net.pairs.size(); ++j) {
    for (std::size_t t = 0; t < w; ++t) {
      const std::size_t i = j * w + t;
      dual = std::max({dual, std::abs(net.q[i]),
                       std::abs(gradient_at(net, net.x, net.q, j, t) - net.q[i])});
    }
  }
  dual += 1.0;
}

bool SeparableWindow::pdas(Network& net) const {
  const std::size_t w = horizon_;
  const std::size_t nw = net.pairs.size() * w;
  const double row_scale = *std::max_element(net.inv_a.begin(), net.inv_a.end());
  for (int it = 0; it < kPdasMaxIterations; ++it) {
    if (!drop_empty_rows(net)) return false;
    // A repeated guess means PDAS cycles: hand over to the safeguard.
    std::uint8_t* guess = &net.visited[static_cast<std::size_t>(it) * (nw + w)];
    std::copy(net.bound.begin(), net.bound.end(), guess);
    std::copy(net.active.begin(), net.active.end(), guess + nw);
    for (int prev = 0; prev < it; ++prev) {
      if (std::equal(guess, guess + nw + w,
                     &net.visited[static_cast<std::size_t>(prev) * (nw + w)])) {
        return false;
      }
    }
    if (!solve_on_sets(net)) return false;
    ++net.steps;
    double primal_scale = 0.0, dual_scale = 0.0;
    scales(net, primal_scale, dual_scale);
    const double primal_tol = kCertificateTolerance * primal_scale;
    const double dual_tol = kCertificateTolerance * dual_scale;
    bool changed = false;
    for (std::size_t i = 0; i < nw; ++i) {
      const std::uint8_t next = net.bound[i] != 0 ? (net.mu[i] >= -dual_tol ? 1 : 0)
                                                  : (net.x[i] < -primal_tol ? 1 : 0);
      changed |= next != net.bound[i];
      net.bound[i] = next;
    }
    for (std::size_t t = 0; t < w; ++t) {
      std::uint8_t next = 0;
      if (net.active[t] != 0) {
        next = net.lambda[t] * row_scale >= -dual_tol ? 1 : 0;
      } else {
        double served = 0.0;
        for (std::size_t j = 0; j < net.pairs.size(); ++j) served += net.inv_a[j] * net.x[j * w + t];
        next = (net.demand[t] - served) / row_scale > primal_tol ? 1 : 0;
      }
      changed |= next != net.active[t];
      net.active[t] = next;
    }
    if (!changed) return true;
  }
  return false;
}

bool SeparableWindow::safeguard(Network& net) const {
  net.safeguarded = true;
  const std::size_t w = horizon_;
  const std::size_t n = net.pairs.size();
  const std::size_t nw = n * w;
  const double row_scale = *std::max_element(net.inv_a.begin(), net.inv_a.end());
  // Feasible start: each period's demand on its cheapest pair. The working
  // set (sign rows of the other pairs, the demand row when D_t > 0) is
  // linearly independent.
  cold_sets(net);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t t = 0; t < w; ++t) {
      net.x[j * w + t] = net.bound[j * w + t] == 0 ? net.demand[t] / net.inv_a[j] : 0.0;
    }
  }
  const int max_steps = kSafeguardStepsPerRow * static_cast<int>(nw + w);
  for (int it = 0; it < max_steps; ++it) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t t = 0; t < w; ++t) {
        net.grad[j * w + t] = gradient_at(net, net.x, net.q, j, t);
      }
    }
    if (!solve_reduced(net, net.grad, /*demand_rhs=*/false, net.step)) return false;
    ++net.steps;
    double x_norm = 0.0, step_norm = 0.0;
    for (std::size_t i = 0; i < nw; ++i) {
      x_norm = std::max(x_norm, std::abs(net.x[i]));
      step_norm = std::max(step_norm, std::abs(net.step[i]));
    }
    const double zero_step = kZeroStep * (1.0 + x_norm);
    if (step_norm <= zero_step) {
      // Minimizer on the working set: drop the most negative multiplier
      // (in $/server), or stop when none is negative.
      double primal_scale = 0.0, dual_scale = 0.0;
      scales(net, primal_scale, dual_scale);
      double worst = -kCertificateTolerance * dual_scale;
      std::size_t drop_row = w, drop_bound = nw;
      for (std::size_t t = 0; t < w; ++t) {
        if (net.active[t] != 0 && net.nu[t] * row_scale < worst) {
          worst = net.nu[t] * row_scale;
          drop_row = t;
          drop_bound = nw;
        }
      }
      for (std::size_t j = 0; j < n; ++j) {
        for (std::size_t t = 0; t < w; ++t) {
          const std::size_t i = j * w + t;
          if (net.bound[i] == 0) continue;
          const double mu = gradient_at(net, net.step, net.grad, j, t) -
                            (net.active[t] != 0 ? net.inv_a[j] * net.nu[t] : 0.0);
          if (mu < worst) {
            worst = mu;
            drop_bound = i;
            drop_row = w;
          }
        }
      }
      if (drop_row < w) {
        net.active[drop_row] = 0;
      } else if (drop_bound < nw) {
        net.bound[drop_bound] = 0;
      } else {
        return true;
      }
      continue;
    }
    // Longest feasible step along the direction, capped at 1; the first
    // blocking constraint joins the working set.
    double alpha = 1.0;
    std::size_t block_row = w, block_bound = nw;
    for (std::size_t i = 0; i < nw; ++i) {
      if (net.bound[i] != 0 || net.step[i] >= -zero_step) continue;
      const double reach = std::max(0.0, net.x[i]) / -net.step[i];
      if (reach < alpha) {
        alpha = reach;
        block_bound = i;
        block_row = w;
      }
    }
    for (std::size_t t = 0; t < w; ++t) {
      if (net.active[t] != 0) continue;
      double served = 0.0, rate = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        served += net.inv_a[j] * net.x[j * w + t];
        rate += net.inv_a[j] * net.step[j * w + t];
      }
      if (rate / row_scale >= -zero_step) continue;
      const double reach = std::max(0.0, served - net.demand[t]) / -rate;
      if (reach < alpha) {
        alpha = reach;
        block_row = t;
        block_bound = nw;
      }
    }
    for (std::size_t i = 0; i < nw; ++i) {
      if (net.bound[i] == 0) net.x[i] += alpha * net.step[i];
    }
    if (block_bound < nw) {
      net.x[block_bound] = 0.0;
      net.bound[block_bound] = 1;
    } else if (block_row < w) {
      net.active[block_row] = 1;
    }
  }
  return false;
}

qp::KktCertificate SeparableWindow::certificate(const Network& net) const {
  const std::size_t w = horizon_;
  const std::size_t n = net.pairs.size();
  const double row_scale = *std::max_element(net.inv_a.begin(), net.inv_a.end());
  qp::KktCertificate cert;
  for (std::size_t t = 0; t < w; ++t) {
    double served = 0.0;
    for (std::size_t j = 0; j < n; ++j) served += net.inv_a[j] * net.x[j * w + t];
    qp::certify_row(cert, served / row_scale, net.demand[t] / row_scale, qp::kInfinity,
                    -net.lambda[t] * row_scale);
  }
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t t = 0; t < w; ++t) {
      const std::size_t i = j * w + t;
      qp::certify_row(cert, net.x[i], 0.0, qp::kInfinity, -net.mu[i]);
      const double residual =
          gradient_at(net, net.x, net.q, j, t) - net.inv_a[j] * net.lambda[t] - net.mu[i];
      cert.stationarity = std::max(cert.stationarity, std::abs(residual));
    }
  }
  return cert;
}

bool SeparableWindow::certified(const Network& net) const {
  const qp::KktCertificate cert = certificate(net);
  double primal_scale = 0.0, dual_scale = 0.0;
  scales(net, primal_scale, dual_scale);
  return cert.primal <= kCertificateTolerance * primal_scale &&
         cert.stationarity <= kCertificateTolerance * dual_scale &&
         cert.dual_sign <= kCertificateTolerance * dual_scale &&
         cert.complementarity <= kCertificateTolerance * primal_scale * dual_scale;
}

bool SeparableWindow::within_penalty(const Network& net, double penalty) const {
  double primal_scale = 0.0, dual_scale = 0.0;
  scales(net, primal_scale, dual_scale);
  const double limit = penalty + kCertificateTolerance * dual_scale;
  return std::all_of(net.lambda.begin(), net.lambda.end(),
                     [limit](double lambda) { return lambda <= limit; });
}

bool SeparableWindow::same_relaxation(const WindowInputs& inputs) const {
  if (!same_bits(inputs.initial_state.data(), kept_state_.data(), kept_state_.size())) {
    return false;
  }
  const std::size_t num_v = pairs_->num_access_networks();
  const std::size_t num_l = pairs_->num_datacenters();
  for (std::size_t t = 0; t < horizon_; ++t) {
    if (!same_bits(inputs.demand[t].data(), &kept_demand_[t * num_v], num_v) ||
        !same_bits(inputs.price[t].data(), &kept_price_[t * num_l], num_l)) {
      return false;
    }
  }
  return true;
}

void SeparableWindow::keep_relaxation(const WindowInputs& inputs) {
  const std::size_t num_v = pairs_->num_access_networks();
  const std::size_t num_l = pairs_->num_datacenters();
  kept_state_.assign(inputs.initial_state.begin(), inputs.initial_state.end());
  kept_demand_.resize(horizon_ * num_v);
  kept_price_.resize(horizon_ * num_l);
  for (std::size_t t = 0; t < horizon_; ++t) {
    std::copy(inputs.demand[t].begin(), inputs.demand[t].end(), &kept_demand_[t * num_v]);
    std::copy(inputs.price[t].begin(), inputs.price[t].end(), &kept_price_[t * num_l]);
  }
}

void SeparableWindow::solve_network(Network& net, bool warm) const {
  net.steps = 0;
  net.safeguarded = false;
  if (warm) {
    shift_sets(net);
  } else {
    cold_sets(net);
  }
  // The returned point is one solve on the final active set: PDAS stops
  // right after solving on the set it confirms; the safeguard's iterate is
  // re-solved on its final working set.
  const bool settled = pdas(net) || (safeguard(net) && solve_on_sets(net));
  net.certified = settled && certified(net);
  net.has_active_set = true;
}

bool SeparableWindow::solve_relaxation(const WindowInputs& inputs, bool warm,
                                       std::size_t max_lanes) {
  const std::size_t w = horizon_;
  const std::size_t num_v = pairs_->num_access_networks();
  const std::size_t pool_lanes = max_lanes > 0 ? max_lanes : ThreadPool::global().max_lanes();
  const std::size_t work_lanes = (pairs_->num_pairs() * w + kWorkPerLane - 1) / kWorkPerLane;
  const std::size_t lanes = std::max<std::size_t>(1, std::min({pool_lanes, num_v, work_lanes}));
  if (lanes != dealt_lanes_) {
    std::vector<double> weights(num_v);
    for (std::size_t v = 0; v < num_v; ++v) {
      weights[v] = static_cast<double>(networks_[v].pairs.size() * w);
    }
    lane_networks_ = deal_lpt(weights, lanes);
    for (auto& lane : lane_networks_) std::sort(lane.begin(), lane.end());
    dealt_lanes_ = lanes;
  }
  // The lane body captures one pointer, which std::function stores inline:
  // a warm solve allocates nothing.
  const struct {
    SeparableWindow* self;
    const WindowInputs* inputs;
    bool warm;
  } job{this, &inputs, warm};
  parallel_for(
      0, lanes,
      [job = &job](std::size_t lane) {
        for (const std::size_t v : job->self->lane_networks_[lane]) {
          Network& net = job->self->networks_[v];
          job->self->load(net, v, *job->inputs);
          job->self->solve_network(net, job->warm && net.has_active_set);
        }
      },
      lanes);

  last_steps_ = 0;
  last_safeguard_runs_ = 0;
  bool all_certified = true;
  for (const Network& net : networks_) {
    last_steps_ += net.steps;
    last_safeguard_runs_ += net.safeguarded ? 1 : 0;
    all_certified &= net.certified;
  }
  return all_certified;
}

SeparableOutcome SeparableWindow::solve(const WindowInputs& inputs, bool warm,
                                        std::size_t max_lanes) {
  obs::Span span("window.separable");
  const std::size_t w = inputs.demand.size();
  const std::size_t num_v = pairs_->num_access_networks();
  require(w >= 1, "SeparableWindow: empty demand forecast");
  require(inputs.soft_demand_penalty >= 0.0, "SeparableWindow: negative demand penalty");
  require(inputs.price.size() == w, "SeparableWindow: price horizon != demand horizon");
  require(inputs.initial_state.size() == pairs_->num_pairs(),
          "SeparableWindow: initial state size != pair count");
  for (const auto& d : inputs.demand) {
    require(d.size() == num_v, "SeparableWindow: demand vector size != V");
    for (const double value : d) require(value >= 0.0, "SeparableWindow: negative demand");
  }
  for (const auto& p : inputs.price) {
    require(p.size() == pairs_->num_datacenters(), "SeparableWindow: price vector size != L");
  }

  if (w != horizon_) {
    horizon_ = w;
    for (Network& net : networks_) size_network(net);
    dealt_lanes_ = 0;
    relaxation_kept_ = false;
  }
  // The relaxation reads neither the quota nor the penalty: with the same
  // state, demand and price, the kept one is the last solve's answer.
  last_reused_ = warm && relaxation_kept_ && same_relaxation(inputs);
  if (last_reused_) {
    last_steps_ = 0;
    last_safeguard_runs_ = 0;
  } else {
    relaxation_kept_ = solve_relaxation(inputs, warm, max_lanes);
    if (!relaxation_kept_) return SeparableOutcome::kUncertified;
    keep_relaxation(inputs);
  }

  if (inputs.soft_demand_penalty > 0.0) {
    for (const Network& net : networks_) {
      if (!within_penalty(net, inputs.soft_demand_penalty)) return SeparableOutcome::kSlackNeeded;
    }
  }
  const std::span<const double> capacity =
      inputs.capacity_override.has_value() ? std::span<const double>(*inputs.capacity_override)
                                           : std::span<const double>(model_->capacity);
  for (std::size_t t = 0; t < w; ++t) {
    for (std::size_t l = 0; l < pairs_->num_datacenters(); ++l) {
      double used = 0.0;
      for (const std::size_t pair : pairs_->pairs_of_datacenter(l)) {
        const Network& net = networks_[pairs_->access_network_of(pair)];
        used += model_->server_size * std::max(0.0, net.x[local_of_pair_[pair] * w + t]);
      }
      if (used > capacity[l]) return SeparableOutcome::kCapacityViolated;
    }
  }
  return SeparableOutcome::kCertified;
}

WindowSolution SeparableWindow::solution(const WindowInputs& inputs) const {
  const std::size_t w = horizon_;
  const std::size_t num_pairs = pairs_->num_pairs();
  WindowSolution solution;
  solution.status = qp::SolveStatus::kOptimal;
  solution.active_set_steps = last_steps_;
  solution.x.assign(w, Vector(num_pairs, 0.0));
  solution.u.assign(w, Vector(num_pairs, 0.0));
  solution.capacity_duals.assign(w, Vector(pairs_->num_datacenters(), 0.0));
  if (inputs.soft_demand_penalty > 0.0) {
    solution.unserved.assign(w, Vector(pairs_->num_access_networks(), 0.0));
  }
  for (std::size_t pair = 0; pair < num_pairs; ++pair) {
    const Network& net = networks_[pairs_->access_network_of(pair)];
    const std::size_t base = local_of_pair_[pair] * w;
    for (std::size_t t = 0; t < w; ++t) solution.x[t][pair] = std::max(0.0, net.x[base + t]);
  }
  double objective = 0.0;
  for (std::size_t t = 0; t < w; ++t) {
    const Vector& previous = t == 0 ? inputs.initial_state : solution.x[t - 1];
    for (std::size_t pair = 0; pair < num_pairs; ++pair) {
      const std::size_t l = pairs_->datacenter_of(pair);
      const double u = solution.x[t][pair] - previous[pair];
      solution.u[t][pair] = u;
      objective += inputs.price[t][l] * solution.x[t][pair] + model_->reconfig_cost[l] * u * u;
    }
  }
  solution.objective = objective;
  return solution;
}

void SeparableWindow::warm_start_point(const WindowProgram& program, Vector& z,
                                       Vector& y) const {
  const std::size_t w = horizon_;
  const qp::QpProblem& problem = program.problem();
  z.assign(problem.num_variables(), 0.0);
  y.assign(problem.num_constraints(), 0.0);
  for (std::size_t v = 0; v < networks_.size(); ++v) {
    const Network& net = networks_[v];
    for (std::size_t t = 0; t < w; ++t) y[program.demand_row(t, v)] = -net.lambda[t];
    for (std::size_t j = 0; j < net.pairs.size(); ++j) {
      const std::size_t pair = net.pairs[j];
      for (std::size_t t = 0; t < w; ++t) {
        const std::size_t i = j * w + t;
        const double x = std::max(0.0, net.x[i]);
        // u_t = x_t - x_{t-1}; the initial state is the state row's bound.
        const double before = t == 0 ? problem.lower[program.state_row(0, pair)]
                                     : std::max(0.0, net.x[i - 1]);
        const double u = x - before;
        z[program.x_variable(t, pair)] = x;
        z[program.u_variable(t, pair)] = u;
        // Stationarity in u: 2 c u - y_state = 0.
        y[program.state_row(t, pair)] = net.two_c[j] * u;
        y[program.sign_row(t, pair)] = -net.mu[i];
      }
    }
  }
}

}  // namespace gp::dspp
