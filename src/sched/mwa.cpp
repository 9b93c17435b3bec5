#include "sched/mwa.hpp"

#include <algorithm>
#include <numeric>

#include "util/check.hpp"
#include "util/host_pool.hpp"
#include "util/simd.hpp"

namespace rips::sched {

namespace {

// Step 5 runs its rows in min(kMaxRowBlocks, rows) blocks on meshes of at
// least kRowBlockMinNodes nodes (the split depends on the mesh only).
constexpr i32 kRowBlockMinNodes = 4096;
constexpr i32 kMaxRowBlocks = 16;

/// The eta/gamma recurrence of Figure 3, shared by the d- and u-vector
/// computations. `delta[k] = w[k] - q[k]` is the surplus at column k.
/// Fills `send` with per-column send amounts whose sum is exactly
/// `amount`; a column never sends more than max(0, delta[k]) (so sends are
/// physically backed by the sender's holdings and only surplus tasks leave
/// their node, which is what makes the algorithm locality-optimal).
void eta_gamma_sends(const std::vector<i64>& delta, i64 amount,
                     std::vector<i64>& send) {
  send.assign(delta.size(), 0);
  i64 eta = amount;  // tasks still to send out of this row
  i64 gamma = 0;     // unmet deficit of columns to the left
  for (size_t k = 0; k < delta.size(); ++k) {
    const i64 d = std::clamp(delta[k] - gamma, i64{0}, eta);
    send[k] = d;
    gamma -= delta[k] - d;
    eta -= d;
  }
  RIPS_CHECK_MSG(eta == 0, "row lacked surplus to satisfy its vertical quota");
}

}  // namespace

const ScheduleResult& Mwa::schedule(const std::vector<i64>& load) {
  const i32 n1 = mesh_.rows();
  const i32 n2 = mesh_.cols();
  const i32 n = n1 * n2;
  RIPS_CHECK(static_cast<i32>(load.size()) == n);

  ScheduleResult& out = result_;
  out.reset();

  // Working copy of per-node loads, indexed [row][col].
  auto w = [&](i32 i, i32 j) -> i64& {
    return out.new_load[static_cast<size_t>(i * n2 + j)];
  };
  out.new_load = load;

  // --- Steps 1-2: information collection.
  // Row scans, column scan-with-sum, broadcast of wavg/R, spread of s/t.
  // Serially we just compute the sums; the step cost is the paper's.
  i64 total = 0;
  std::vector<i64>& t = scratch_.t;  // t_i = sum of rows 0..i
  t.assign(static_cast<size_t>(n1), 0);
  for (i32 i = 0; i < n1; ++i) {
    // Row-sum kernel: each row is a contiguous n2-wide slice of new_load.
    total += simd::sum_i64(&w(i, 0), static_cast<size_t>(n2));
    t[static_cast<size_t>(i)] = total;
  }
  out.info_steps += 2 * (n1 + n2);

  // --- Step 3: quotas.
  quota_into(total, n, scratch_.quota);
  const std::vector<i64>& quota = scratch_.quota;
  const i64 wavg = total / n;
  const i64 remainder = total % n;
  // Row-accumulation quota Q_i = quota of the submesh rows 0..i.
  std::vector<i64>& big_q = scratch_.big_q;
  big_q.assign(static_cast<size_t>(n1), 0);
  for (i32 i = 0; i < n1; ++i) {
    const i64 filled = static_cast<i64>(i + 1) * n2;
    big_q[static_cast<size_t>(i)] =
        wavg * filled + std::min<i64>(filled, remainder);
  }

  // y_i > 0: rows 0..i are overloaded and send y_i tasks to row i+1.
  // y_i < 0: rows 0..i are underloaded and receive |y_i| from row i+1.
  std::vector<i64>& y = scratch_.y;
  y.assign(static_cast<size_t>(n1), 0);
  for (i32 i = 0; i < n1; ++i) {
    y[static_cast<size_t>(i)] = t[static_cast<size_t>(i)] - big_q[static_cast<size_t>(i)];
  }
  RIPS_CHECK(y[static_cast<size_t>(n1 - 1)] == 0);

  // --- Step 4: vertical balancing.
  // Downward cascade (rows with y_i > 0 send to row i+1). Row order
  // matters: receipts from row i-1 must land before row i computes its
  // d vector. The lock-step round of each send is the length of the
  // consecutive chain of sending rows that feeds it.
  std::vector<i64>& delta = scratch_.delta;
  delta.assign(static_cast<size_t>(n2), 0);
  // Each step-4 transfer's column is its lane (stage 0, below): count the
  // lanes' sizes and keep the columns as the transfers are planned.
  std::vector<u32>& fill = scratch_.lane_fill;
  std::vector<u32>& lane_col = scratch_.lane_col;
  fill.assign(static_cast<size_t>(n2) + 1, 0);
  lane_col.clear();
  const auto add_to_lane = [&](i32 j, i64 amount) {
    ++fill[static_cast<size_t>(j) + 1];
    lane_col.push_back(static_cast<u32>(j));
    out.task_hops += amount;
  };
  i32 step4_down = 0;
  {
    i32 chain = 0;
    for (i32 i = 0; i + 1 < n1; ++i) {
      if (y[static_cast<size_t>(i)] > 0) {
        chain += 1;
        simd::sub_i64(&w(i, 0), &quota[static_cast<size_t>(i * n2)],
                      delta.data(), static_cast<size_t>(n2));
        const std::vector<i64>& d = scratch_.send;
        eta_gamma_sends(delta, y[static_cast<size_t>(i)], scratch_.send);
        for (i32 j = 0; j < n2; ++j) {
          const i64 amount = d[static_cast<size_t>(j)];
          if (amount == 0) continue;
          w(i, j) -= amount;
          w(i + 1, j) += amount;
          out.transfers.push_back(
              {mesh_.at(i, j), mesh_.at(i + 1, j), amount, chain});
          add_to_lane(j, amount);
        }
        step4_down = std::max(step4_down, chain);
      } else {
        chain = 0;
      }
    }
  }
  // Upward cascade (rows above row i are underloaded: y_{i-1} < 0, so row i
  // sends |y_{i-1}| up). Processed bottom-up so receipts from below land
  // first.
  i32 step4_up = 0;
  {
    i32 chain = 0;
    for (i32 i = n1 - 1; i >= 1; --i) {
      if (y[static_cast<size_t>(i - 1)] < 0) {
        chain += 1;
        simd::sub_i64(&w(i, 0), &quota[static_cast<size_t>(i * n2)],
                      delta.data(), static_cast<size_t>(n2));
        const std::vector<i64>& u = scratch_.send;
        eta_gamma_sends(delta, -y[static_cast<size_t>(i - 1)], scratch_.send);
        for (i32 j = 0; j < n2; ++j) {
          const i64 amount = u[static_cast<size_t>(j)];
          if (amount == 0) continue;
          w(i, j) -= amount;
          w(i - 1, j) += amount;
          out.transfers.push_back(
              {mesh_.at(i, j), mesh_.at(i - 1, j), amount, chain});
          add_to_lane(j, amount);
        }
        step4_up = std::max(step4_up, chain);
      } else {
        chain = 0;
      }
    }
  }
  const i32 step4_rounds = std::max(step4_down, step4_up);
  out.transfer_steps += step4_rounds;

  // Every row now holds exactly its row quota.
#ifndef NDEBUG
  for (i32 i = 0; i < n1; ++i) {
    i64 row_total = 0;
    i64 row_quota = 0;
    for (i32 j = 0; j < n2; ++j) {
      row_total += w(i, j);
      row_quota += quota[static_cast<size_t>(i * n2 + j)];
    }
    RIPS_DCHECK(row_total == row_quota);
  }
#endif

  // --- Step 5: horizontal balancing inside each row (step5_rows). Rows
  // are independent, so a large mesh runs them in blocks on the host pool;
  // each block fills its own buffer and the plan takes them in row order.
  const auto step4_end = static_cast<u32>(out.transfers.size());
  const i32 blocks =
      n >= kRowBlockMinNodes ? std::min(kMaxRowBlocks, n1) : 1;
  if (row_blocks_.size() < static_cast<size_t>(blocks)) {
    row_blocks_.resize(static_cast<size_t>(blocks));
  }
  if (blocks == 1) {
    step5_rows(0, n1, step4_rounds, row_blocks_[0], out.transfers);
  } else {
    auto body = [&](size_t b) {
      RowBlock& block = row_blocks_[b];
      block.transfers.clear();
      step5_rows(static_cast<i32>(b * static_cast<size_t>(n1) /
                                  static_cast<size_t>(blocks)),
                 static_cast<i32>((b + 1) * static_cast<size_t>(n1) /
                                  static_cast<size_t>(blocks)),
                 step4_rounds, block, block.transfers);
    };
    host_pool::run(static_cast<size_t>(blocks), body);
  }

  // Lanes. Stage 0 is step 4 with one lane per column: a column's
  // transfers interleave with the other columns', so its lane lists their
  // indices (a stable counting sort by column). Stage 1 is step 5 with one
  // lane per row, each a contiguous range of the plan.
  for (i32 j = 0; j < n2; ++j) {
    fill[static_cast<size_t>(j) + 1] += fill[static_cast<size_t>(j)];
  }
  out.lane_ends.assign(fill.begin() + 1, fill.end());
  i32 step5_rounds = 0;
  for (i32 b = 0; b < blocks; ++b) {
    const RowBlock& block = row_blocks_[static_cast<size_t>(b)];
    u32 base = 0;  // one block appended to the plan directly
    if (blocks > 1) {
      base = static_cast<u32>(out.transfers.size());
      out.transfers.insert(out.transfers.end(), block.transfers.begin(),
                           block.transfers.end());
    }
    for (const u32 end : block.row_ends) out.lane_ends.push_back(base + end);
    step5_rounds = std::max(step5_rounds, block.rounds);
    out.task_hops += block.hops;
  }
  out.lane_transfers.resize(out.transfers.size());
  for (u32 k = 0; k < step4_end; ++k) {
    out.lane_transfers[fill[lane_col[k]]++] = k;
  }
  std::iota(out.lane_transfers.begin() + step4_end, out.lane_transfers.end(),
            step4_end);
  out.stage_ends.assign({static_cast<u32>(n2), static_cast<u32>(n2 + n1)});
  out.transfer_steps += step5_rounds;

  // Theorem 1: every node ends exactly at its quota.
  RIPS_CHECK(out.new_load == quota);
  out.comm_steps = out.info_steps + out.transfer_steps;
  return result_;
}

void Mwa::step5_rows(i32 row_begin, i32 row_end, i32 step4_rounds,
                     RowBlock& block, std::vector<Transfer>& out) {
  const i32 n2 = mesh_.cols();
  const auto w = [&](i32 i, i32 j) -> i64& {
    return result_.new_load[static_cast<size_t>(i * n2 + j)];
  };
  const auto q = [&](i32 i, i32 j) -> i64 {
    return scratch_.quota[static_cast<size_t>(i * n2 + j)];
  };
  // Net rightward flow across the boundary between columns b-1 and b is
  // z_b = sum_{k<b} (w - q). Transfers are executed in synchronous rounds
  // (a relay node can only forward what it already holds), which is what
  // bounds the step count by n2.
  //
  // A round visits only the pending boundaries whose sender holds more
  // than its quota at the round's start: any other would find nothing to
  // send and change nothing, so the plan is the one a scan of every
  // boundary gives. A sender's holdings change only when it sends or
  // receives, so the next round's boundaries are among this round's and
  // those whose sender just received (`next`, sorted before use).
  std::vector<i64>& flow = block.flow;  // flow[b], b>=1
  flow.resize(static_cast<size_t>(n2));
  std::vector<i64>& reserved = block.reserved;
  reserved.assign(static_cast<size_t>(n2), 0);
  std::vector<i32>& visit = block.visit;
  std::vector<i32>& next = block.next;
  std::vector<i64>& hold = block.hold;
  std::vector<Transfer>& batch = block.batch;
  block.row_ends.clear();
  block.rounds = 0;
  block.hops = 0;
  const auto sender_of = [&](i32 b) {
    return flow[static_cast<size_t>(b)] > 0 ? b - 1 : b;
  };
  for (i32 i = row_begin; i < row_end; ++i) {
    const auto has_surplus = [&](i32 col) {
      return hold[static_cast<size_t>(col)] > q(i, col);
    };
    hold.assign(&w(i, 0), &w(i, 0) + n2);
    visit.clear();
    i32 pending = 0;  // boundaries whose flow is not yet settled
    i64 prefix = 0;
    for (i32 b = 1; b < n2; ++b) {
      prefix += w(i, b - 1) - q(i, b - 1);
      flow[static_cast<size_t>(b)] = prefix;
      if (prefix == 0) continue;
      ++pending;
      if (has_surplus(sender_of(b))) visit.push_back(b);
    }
    if (pending == 0) {
      block.row_ends.push_back(static_cast<u32>(out.size()));
      continue;
    }

    i32 round = 0;
    while (pending > 0) {
      ++round;
      RIPS_CHECK_MSG(round <= n2 + 1, "step 5 failed to settle in n2 rounds");
      // Decide all sends against start-of-round holdings.
      batch.clear();
      next.clear();
      for (const i32 b : visit) {
        i64& f = flow[static_cast<size_t>(b)];
        const i32 sender = sender_of(b);
        const i32 receiver = f > 0 ? b : b - 1;
        const i64 want = std::abs(f);
        // Surplus gating: a relay never dips below its own quota — it
        // waits for inflow instead. This is what makes the non-local task
        // count exactly the Theorem-2 minimum (a relay forwards received
        // tasks rather than evicting its own).
        const i64 avail =
            std::max<i64>(0, hold[static_cast<size_t>(sender)] -
                                 reserved[static_cast<size_t>(sender)] -
                                 q(i, sender));
        const i64 amount = std::min(want, avail);
        if (amount > 0) {
          reserved[static_cast<size_t>(sender)] += amount;
          batch.push_back({mesh_.at(i, sender), mesh_.at(i, receiver), amount,
                           step4_rounds + round});
          f -= f > 0 ? amount : -amount;
          if (f == 0) --pending;
        }
        if (f != 0) next.push_back(b);
      }
      const NodeId row_base = mesh_.at(i, 0);  // columns without a division
      for (const Transfer& tr : batch) {
        const auto from = static_cast<size_t>(tr.from - row_base);
        const i32 to = tr.to - row_base;
        hold[from] -= tr.count;
        hold[static_cast<size_t>(to)] += tr.count;
        reserved[from] = 0;
        out.push_back(tr);
        block.hops += tr.count;
        // The receiver sends across its left boundary when that flow is
        // negative, across its right one when that flow is positive.
        if (to >= 1 && flow[static_cast<size_t>(to)] < 0) next.push_back(to);
        if (to + 1 < n2 && flow[static_cast<size_t>(to) + 1] > 0) {
          next.push_back(to + 1);
        }
      }
      std::sort(next.begin(), next.end());
      next.erase(std::unique(next.begin(), next.end()), next.end());
      visit.clear();
      for (const i32 b : next) {
        if (has_surplus(sender_of(b))) visit.push_back(b);
      }
    }
    // The row's last round goes uncounted: a known undercount by one that
    // every committed baseline contains. Counting it changes every
    // simulated system-phase duration.
    block.rounds = std::max(block.rounds, round - 1);
    std::copy(hold.begin(), hold.end(), &w(i, 0));
    block.row_ends.push_back(static_cast<u32>(out.size()));
  }
}

}  // namespace rips::sched
