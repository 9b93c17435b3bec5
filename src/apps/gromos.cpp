#include "apps/gromos.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace rips::apps {

namespace {

/// Uniform cell grid over the molecule's bounding box, stored CSR-style:
/// one flat atom-id array partitioned by a per-cell offset table (no
/// vector-of-vectors allocation churn). Atom ids are ascending within each
/// cell, which lets the pair sweep below charge the lower-indexed atom of
/// a same-cell pair without comparing indices.
class CellList {
 public:
  CellList(const std::vector<Vec3>& atoms, double cell_size)
      : cell_(cell_size) {
    RIPS_CHECK(cell_size > 0.0);
    lo_ = atoms.front();
    Vec3 hi = atoms.front();
    for (const Vec3& a : atoms) {
      lo_.x = std::min(lo_.x, a.x);
      lo_.y = std::min(lo_.y, a.y);
      lo_.z = std::min(lo_.z, a.z);
      hi.x = std::max(hi.x, a.x);
      hi.y = std::max(hi.y, a.y);
      hi.z = std::max(hi.z, a.z);
    }
    nx_ = dim(lo_.x, hi.x);
    ny_ = dim(lo_.y, hi.y);
    nz_ = dim(lo_.z, hi.z);
    const size_t ncells = static_cast<size_t>(nx_) * ny_ * nz_;
    const size_t n = atoms.size();
    // Counting sort into CSR: count, prefix-sum, fill. Filling in atom
    // order keeps each cell's id run ascending.
    start_.assign(ncells + 1, 0);
    std::vector<u32> slot(n);
    for (size_t i = 0; i < n; ++i) {
      slot[i] = static_cast<u32>(cell_index(atoms[i]));
      start_[slot[i] + 1] += 1;
    }
    for (size_t c = 0; c < ncells; ++c) start_[c + 1] += start_[c];
    ids_.resize(n);
    std::vector<u32> cursor(start_.begin(), start_.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      ids_[cursor[slot[i]]++] = static_cast<i32>(i);
    }
  }

  i32 nx() const { return nx_; }
  i32 ny() const { return ny_; }
  i32 nz() const { return nz_; }

  /// Atom ids in cell-sorted (slot) order; ascending within each cell.
  const std::vector<i32>& ids() const { return ids_; }

  /// Slot range [first, last) of cell (x, y, z).
  std::pair<u32, u32> cell(i32 x, i32 y, i32 z) const {
    const size_t c = (static_cast<size_t>(x) * ny_ + y) * nz_ + z;
    return {start_[c], start_[c + 1]};
  }

  /// Slot range covering cells (x, y, zlo..zhi) — z is the
  /// fastest-varying index, so a z-run of cells is contiguous in slots.
  std::pair<u32, u32> row(i32 x, i32 y, i32 zlo, i32 zhi) const {
    const size_t c = (static_cast<size_t>(x) * ny_ + y) * nz_;
    return {start_[c + zlo], start_[c + zhi + 1]};
  }

 private:
  i32 dim(double lo, double hi) const {
    return std::max<i32>(1, static_cast<i32>((hi - lo) / cell_) + 1);
  }
  i32 coord(double v, double lo, i32 n) const {
    return std::clamp(static_cast<i32>((v - lo) / cell_), 0, n - 1);
  }
  size_t cell_index(const Vec3& a) const {
    return (static_cast<size_t>(coord(a.x, lo_.x, nx_)) * ny_ +
            coord(a.y, lo_.y, ny_)) *
               nz_ +
           coord(a.z, lo_.z, nz_);
  }

  double cell_;
  Vec3 lo_;
  i32 nx_ = 1, ny_ = 1, nz_ = 1;
  std::vector<u32> start_;  // ncells + 1 CSR offsets into ids_
  std::vector<i32> ids_;    // atom ids grouped by cell, ascending per cell
};

}  // namespace

Molecule::Molecule(const GromosConfig& config) {
  RIPS_CHECK(config.num_atoms >= config.num_groups);
  RIPS_CHECK(config.num_groups >= 1);
  Rng rng(config.seed);

  // Two dense lobes (SOD is a homodimer) plus a diffuse shell. Protein
  // packing is ~0.1 atom/A^3; a ~6968-atom dimer fits in two ~20 A-radius
  // lobes whose centers sit ~24 A apart.
  const i32 n = config.num_atoms;
  const i32 shell_atoms = n / 8;           // diffuse outer shell
  const i32 lobe_atoms = (n - shell_atoms) / 2;
  const double lobe_radius = 20.0;
  const Vec3 centers[2] = {{-12.0, 0.0, 0.0}, {12.0, 0.0, 0.0}};

  auto sample_ball = [&](const Vec3& c, double radius, double bias) {
    // bias < 1 concentrates atoms near the center => density gradient.
    const double u = rng.next_double();
    const double r = radius * std::pow(u, bias);
    const double cos_t = 2.0 * rng.next_double() - 1.0;
    const double sin_t = std::sqrt(std::max(0.0, 1.0 - cos_t * cos_t));
    const double phi = 2.0 * 3.14159265358979323846 * rng.next_double();
    return Vec3{c.x + r * sin_t * std::cos(phi),
                c.y + r * sin_t * std::sin(phi), c.z + r * cos_t};
  };

  atoms_.reserve(static_cast<size_t>(n));
  for (i32 lobe = 0; lobe < 2; ++lobe) {
    for (i32 i = 0; i < lobe_atoms; ++i) {
      atoms_.push_back(sample_ball(centers[static_cast<size_t>(lobe)],
                                   lobe_radius, 0.45));
    }
  }
  while (static_cast<i32>(atoms_.size()) < n) {
    // Shell: sparse solvent out to 36 A around the origin.
    atoms_.push_back(sample_ball({0.0, 0.0, 0.0}, 36.0, 0.9));
  }

  // Charge groups partition the atom array into contiguous runs of size 1
  // or 2 (6968 atoms / 4986 groups => 1982 pairs + 3004 singletons,
  // interleaved deterministically).
  const i32 groups = config.num_groups;
  const i32 pairs = config.num_atoms - groups;  // groups of size 2
  RIPS_CHECK(pairs >= 0 && pairs <= groups);
  group_start_.reserve(static_cast<size_t>(groups) + 1);
  group_start_.push_back(0);
  i32 pos = 0;
  for (i32 g = 0; g < groups; ++g) {
    // Spread the size-2 groups evenly over the group sequence.
    const bool big =
        (static_cast<i64>(g + 1) * pairs) / groups >
        (static_cast<i64>(g) * pairs) / groups;
    pos += big ? 2 : 1;
    group_start_.push_back(pos);
  }
  RIPS_CHECK(pos == config.num_atoms);
}

std::vector<u64> Molecule::pair_counts(double cutoff) const {
  RIPS_CHECK(cutoff > 0.0);
  // Cells of cutoff/2 instead of cutoff: the swept neighborhood shrinks
  // from (3c)^3 to (2.5c)^3 around the cutoff sphere, ~1.7x fewer distance
  // tests. Membership is still decided by the exact squared distance
  // against cutoff2, so the counted pair set is unchanged.
  const CellList cells(atoms_, cutoff * 0.5);
  const i32 kR = 2;  // ceil(cutoff / cell size): max cell-index gap of a pair
  const double cutoff2 = cutoff * cutoff;

  // Atom -> group map.
  std::vector<i32> group_of(static_cast<size_t>(num_atoms()));
  for (i32 g = 0; g < num_groups(); ++g) {
    for (i32 a = group_begin(g); a < group_end(g); ++a) {
      group_of[static_cast<size_t>(a)] = g;
    }
  }

  // Half sweep over cell-sorted structure-of-arrays positions: each
  // unordered pair is examined exactly once — the rest of the atom's own
  // z-row (own-cell upper triangle merged with the forward-z cells, one
  // contiguous slot run) plus the lexicographically forward (dx, dy) rows.
  // Each candidate run is a contiguous streak of slots, so the distance
  // pass is a flat vectorizable loop into a buffer; hits are then charged
  // to the lower-indexed atom's group. The squared-difference distance is
  // symmetric bit-for-bit, so counts match a full 27-cell scan exactly.
  const size_t n = static_cast<size_t>(num_atoms());
  const std::vector<i32>& ids = cells.ids();
  std::vector<double> px(n), py(n), pz(n);
  for (size_t k = 0; k < n; ++k) {
    const Vec3& a = atoms_[static_cast<size_t>(ids[k])];
    px[k] = a.x;
    py[k] = a.y;
    pz[k] = a.z;
  }

  std::vector<u64> counts(static_cast<size_t>(num_groups()), 0);
  std::vector<double> d2(n);
  const double* RIPS_RESTRICT qx = px.data();
  const double* RIPS_RESTRICT qy = py.data();
  const double* RIPS_RESTRICT qz = pz.data();
  for (i32 x = 0; x < cells.nx(); ++x) {
    for (i32 y = 0; y < cells.ny(); ++y) {
      for (i32 z = 0; z < cells.nz(); ++z) {
        const auto [beg, end] = cells.cell(x, y, z);
        if (beg == end) continue;
        const i32 zlo = std::max(z - kR, 0);
        const i32 zhi = std::min(z + kR, cells.nz() - 1);
        // Forward candidate rows shared by every atom of this cell:
        // (dx, dy) lexicographically > (0, 0), full clipped z-range.
        u32 rows[(kR + 1) * (2 * kR + 1)][2];
        size_t nrows = 0;
        for (i32 dx = 0; dx <= kR && x + dx < cells.nx(); ++dx) {
          for (i32 dy = dx != 0 ? -kR : 1; dy <= kR; ++dy) {
            const i32 oy = y + dy;
            if (oy < 0 || oy >= cells.ny()) continue;
            const auto [rb, re] = cells.row(x + dx, oy, zlo, zhi);
            if (rb != re) {
              rows[nrows][0] = rb;
              rows[nrows][1] = re;
              ++nrows;
            }
          }
        }
        const u32 tail = cells.row(x, y, z, zhi).second;
        for (u32 a = beg; a != end; ++a) {
          const i32 i = ids[a];
          const double ax = qx[a];
          const double ay = qy[a];
          const double az = qz[a];
          auto sweep = [&](u32 lo, u32 hi) {
            double* RIPS_RESTRICT buf = d2.data();
            for (u32 t = lo; t < hi; ++t) {
              const double dx = ax - qx[t];
              const double dy = ay - qy[t];
              const double dz = az - qz[t];
              buf[t] = dx * dx + dy * dy + dz * dz;
            }
            for (u32 t = lo; t < hi; ++t) {
              if (buf[t] <= cutoff2) {
                const i32 j = ids[t];
                counts[static_cast<size_t>(
                    group_of[static_cast<size_t>(std::min(i, j))])] += 1;
              }
            }
          };
          // Own-cell upper triangle + forward-z cells: one contiguous run.
          sweep(a + 1, tail);
          for (size_t r = 0; r < nrows; ++r) sweep(rows[r][0], rows[r][1]);
        }
      }
    }
  }
  return counts;
}

void Molecule::jiggle(double sigma_angstrom, u64 seed) {
  Rng rng(seed);
  for (Vec3& a : atoms_) {
    a.x += sigma_angstrom * rng.next_gaussian();
    a.y += sigma_angstrom * rng.next_gaussian();
    a.z += sigma_angstrom * rng.next_gaussian();
  }
}

TaskTrace build_gromos_trace(const GromosConfig& config) {
  RIPS_CHECK(config.num_steps >= 1);
  Molecule mol(config);
  TaskTrace trace;
  for (i32 step = 0; step < config.num_steps; ++step) {
    if (step > 0) {
      trace.begin_segment();
      mol.jiggle(0.05, config.seed + static_cast<u64>(step) * 7919);
    }
    const std::vector<u64> counts = mol.pair_counts(config.cutoff_angstrom);
    for (u64 c : counts) {
      // Every group is a task even when its neighborhood is empty: the
      // force routine still runs per group (work >= 1).
      trace.add_root(std::max<u64>(c, 1));
    }
  }
  return trace;
}

}  // namespace rips::apps
