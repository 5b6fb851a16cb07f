#include "api/array.hpp"

#include <bit>
#include <fstream>
#include <sstream>
#include <utility>

#include "engine/engine.hpp"
#include "layout/metrics.hpp"
#include "layout/serialize.hpp"

namespace pdl::api {

namespace {

using core::BuiltLayout;
using core::Construction;
using layout::Layout;
using layout::SparedLayout;
using layout::Stripe;
using layout::StripeUnit;

/// The stripe's parity positions in codec ordinal order: the layout's
/// parity_pos (P) first, then m - 1 extra designations walking cyclically
/// from parity_pos + 1 and skipping the spare slot.  Deterministic, so
/// the cyclic walk spreads the extra parity (like Q) across positions --
/// and thus disks -- exactly as the primary parity is spread by the
/// declustered layout itself.
[[nodiscard]] std::vector<std::uint32_t> parity_positions_of(
    const Stripe& st, std::uint32_t spare_pos, std::uint32_t m) {
  std::vector<std::uint32_t> positions;
  positions.reserve(m);
  positions.push_back(st.parity_pos);
  const auto width = static_cast<std::uint32_t>(st.units.size());
  for (std::uint32_t step = 1; positions.size() < m && step < width;
       ++step) {
    const std::uint32_t pos = (st.parity_pos + step) % width;
    if (pos == spare_pos) continue;
    positions.push_back(pos);
  }
  return positions;
}

/// Per-stripe bit masks of every parity position for the codec's m, the
/// shape layout::AddressMapper's parity-aware constructor consumes.
[[nodiscard]] std::vector<std::uint64_t> compute_parity_masks(
    const Layout& layout, const SparedLayout* spared, std::uint32_t m) {
  const auto& stripes = layout.stripes();
  std::vector<std::uint64_t> masks(stripes.size(), 0);
  for (std::size_t si = 0; si < stripes.size(); ++si) {
    const std::uint32_t spare =
        spared ? spared->spare_pos[si] : 0xffffffffu;
    for (const std::uint32_t pos :
         parity_positions_of(stripes[si], spare, m))
      masks[si] |= 1ull << pos;
  }
  return masks;
}

/// Data units per layout iteration under the given sparing mode and
/// parity count; 0 means the array could hold no data and must be
/// rejected before the mapper (which throws) sees it.
[[nodiscard]] std::uint64_t count_data_units(const Layout& layout,
                                             bool spared, std::uint32_t m) {
  const std::size_t overhead = m + (spared ? 1 : 0);  // parity (+ spare)
  std::uint64_t count = 0;
  for (const Stripe& st : layout.stripes())
    if (st.units.size() > overhead) count += st.units.size() - overhead;
  return count;
}

[[nodiscard]] Status validate_layout(const Layout& layout) {
  const auto errors = layout.validate();
  if (!errors.empty())
    return Status::invalid_argument("invalid layout: " + errors.front());
  // The online state machine tracks lost positions in a 64-bit mask per
  // stripe.
  for (const Stripe& st : layout.stripes()) {
    if (st.units.size() > 64)
      return Status::invalid_argument(
          "stripe sizes above 64 are not supported (got " +
          std::to_string(st.units.size()) + ")");
  }
  return OkStatus();
}

/// Every stripe must hold the codec's m parity units, the spare (if
/// any), and at least one data unit.
[[nodiscard]] Status validate_codec_fit(const Layout& layout, bool spared,
                                        core::CodecKind codec) {
  const std::uint32_t m = core::codec_for(codec).num_parity();
  const std::size_t overhead = m + (spared ? 1 : 0);
  for (const Stripe& st : layout.stripes()) {
    if (st.units.size() <= overhead)
      return Status::invalid_argument(
          "stripe of " + std::to_string(st.units.size()) +
          " units cannot hold " + std::to_string(m) + " " +
          std::string(core::codec_kind_name(codec)) + " parity units" +
          (spared ? ", a spare," : "") + " and data");
  }
  return OkStatus();
}

/// A built layout fits the codec when each stripe holds its m parity
/// units plus, under distributed sparing, the spare, and the layout
/// holds some data.  A stripe of parity alone is legal: it reads nothing
/// and re-encodes zero.  Checked before sparing is derived and before
/// the Array constructor reads m parity positions per stripe.
[[nodiscard]] Status validate_built_fit(const BuiltLayout& built,
                                        bool spared, core::CodecKind codec) {
  const std::uint32_t m = core::codec_for(codec).num_parity();
  const std::size_t overhead = m + (spared ? 1 : 0);
  const auto misfit = [&](const std::string& why) {
    return Status::unsupported(core::construction_name(built.construction) +
                               " (" + built.description + ") " + why +
                               " under " +
                               std::string(core::codec_kind_name(codec)) +
                               (spared ? " with distributed sparing" : ""));
  };
  for (const Stripe& st : built.layout.stripes())
    if (st.units.size() < overhead)
      return misfit("has a stripe of " + std::to_string(st.units.size()) +
                    " units, too few for " + std::to_string(m) +
                    " parity units" + (spared ? " and a spare" : ""));
  if (count_data_units(built.layout, spared, m) == 0)
    return misfit("holds no data units");
  return OkStatus();
}

}  // namespace

std::string_view disk_state_name(DiskState state) noexcept {
  switch (state) {
    case DiskState::kHealthy: return "healthy";
    case DiskState::kFailed: return "failed";
    case DiskState::kRebuilding: return "rebuilding";
  }
  return "?";
}

Array::Array(std::shared_ptr<const BuiltLayout> built,
             std::shared_ptr<const SparedLayout> spared,
             core::CodecKind codec)
    : built_(std::move(built)),
      spared_(std::move(spared)),
      codec_kind_(codec),
      num_parity_(core::codec_for(codec).num_parity()),
      parity_mask_(compute_parity_masks(
          spared_ ? spared_->layout : built_->layout, spared_.get(),
          num_parity_)),
      mapper_(layout::AddressMapper(
          spared_ ? spared_->layout : built_->layout,
          spared_ ? spared_->spare_pos : std::vector<std::uint32_t>{},
          parity_mask_)) {
  const Layout& l = layout();
  const auto& stripes = l.stripes();
  const std::uint32_t n = static_cast<std::uint32_t>(stripes.size());

  data_units_.reserve(mapper_.data_units_per_iteration());
  disk_units_.resize(l.num_disks());
  stripe_num_data_.resize(n);
  parity_positions_.resize(n);
  unit_index_.resize(n);
  for (std::uint32_t si = 0; si < n; ++si) {
    const Stripe& st = stripes[si];
    const std::uint32_t spare =
        spared_ ? spared_->spare_pos[si] : 0xffffffffu;
    parity_positions_[si] = parity_positions_of(st, spare, num_parity_);
    unit_index_[si].assign(st.units.size(), kNoUnit);
    // Data indices in increasing position order (the codec convention and
    // the mapper's logical numbering, kept in lockstep).
    std::uint32_t di = 0;
    for (std::uint32_t pos = 0; pos < st.units.size(); ++pos) {
      disk_units_[st.units[pos].disk].push_back({si, pos});
      if ((parity_mask_[si] >> pos) & 1) continue;
      if (pos == spare) continue;
      unit_index_[si][pos] = di++;
      data_units_.push_back({si, pos});
    }
    stripe_num_data_[si] = di;
    for (std::uint32_t j = 0; j < num_parity_; ++j)
      unit_index_[si][parity_positions_[si][j]] = di + j;
  }

  disk_state_.assign(l.num_disks(), DiskState::kHealthy);
  lost_mask_.assign(n, 0);
  unrecoverable_.assign(n, 0);
  redirect_.assign(n, kNone);
  pending_home_.assign(l.num_disks(), 0);
}

Result<Array> Array::create(const core::ArraySpec& spec,
                            const core::BuildOptions& build,
                            const ArrayOptions& options) {
  return create_with(engine::Engine::global(), spec, build, options);
}

Result<Array> Array::create_with(engine::Engine& engine,
                                 const core::ArraySpec& spec,
                                 const core::BuildOptions& build,
                                 const ArrayOptions& options) {
  if (Status domain = layout::validate_vk(spec.num_disks, spec.stripe_size);
      !domain.ok())
    return domain;
  if (spec.stripe_size > 64)
    return Status::invalid_argument(
        "stripe sizes above 64 are not supported by the online state "
        "machine (got k=" + std::to_string(spec.stripe_size) + ")");
  const bool spare = options.sparing == SparingMode::kDistributed;
  const std::uint32_t m = core::codec_for(options.codec).num_parity();
  if (spec.stripe_size < m + 1 + (spare ? 1 : 0))
    return Status::invalid_argument(
        "k=" + std::to_string(spec.stripe_size) +
        " cannot hold " + std::to_string(m) + " " +
        std::string(core::codec_kind_name(options.codec)) +
        " parity units" + (spare ? ", a spare," : "") +
        " and at least one data unit per stripe");

  std::shared_ptr<const BuiltLayout> built;
  std::shared_ptr<const SparedLayout> spared;
  if (options.construction) {
    // Pinned construction: bypass ranking (and the cache).  Unlike
    // build_best, build_with has no fallback route, so a builder throwing
    // mid-build surfaces here as a typed error rather than an exception.
    std::optional<BuiltLayout> b;
    try {
      b = engine.planner().build_with(*options.construction, spec, build);
    } catch (const std::exception& e) {
      return Status::unsupported(
          core::construction_name(*options.construction) +
          " failed to build at v=" + std::to_string(spec.num_disks) +
          " k=" + std::to_string(spec.stripe_size) + ": " + e.what());
    }
    if (!b)
      return Status::unsupported(
          core::construction_name(*options.construction) +
          " does not apply at v=" + std::to_string(spec.num_disks) +
          " k=" + std::to_string(spec.stripe_size) + " under the options");
    built = std::make_shared<const BuiltLayout>(std::move(*b));
    if (Status fit = validate_built_fit(*built, spare, options.codec);
        !fit.ok())
      return fit;
    if (spare)
      spared = std::make_shared<const SparedLayout>(
          layout::add_distributed_sparing(built->layout));
  } else {
    // build_best falls back down the ranking when a builder throws, and
    // rethrows only when EVERY admitted plan threw: a builder bug that
    // must still surface as a typed error, never escape a Result call.
    try {
      auto b = engine.build(spec, build);
      if (!b.ok()) return b.status();
      built = std::move(b).value();
      if (Status fit = validate_built_fit(*built, spare, options.codec);
          !fit.ok())
        return fit;
      if (spare) {
        auto s = engine.build_spared(spec, build);
        if (!s.ok()) return s.status();
        spared = std::move(s).value();
      }
    } catch (const std::exception& e) {
      return Status::internal(
          "every admitted construction failed to build at v=" +
          std::to_string(spec.num_disks) + " k=" +
          std::to_string(spec.stripe_size) + ": " + e.what());
    }
  }
  Array array(std::move(built), std::move(spared), options.codec);
  array.integrity_ = options.integrity;
  return array;
}

Result<Array> Array::adopt(Layout layout, core::CodecKind codec,
                           bool integrity) {
  if (Status valid = validate_layout(layout); !valid.ok()) return valid;
  if (Status fit = validate_codec_fit(layout, /*spared=*/false, codec);
      !fit.ok())
    return fit;
  if (count_data_units(layout, /*spared=*/false,
                       core::codec_for(codec).num_parity()) == 0)
    return Status::invalid_argument("layout holds no data units");
  auto metrics = layout::compute_metrics(layout);
  auto built = std::make_shared<const BuiltLayout>(
      BuiltLayout{std::move(layout), Construction::kExternal,
                  "externally supplied layout", std::move(metrics)});
  Array array(std::move(built), nullptr, codec);
  array.integrity_ = integrity;
  return array;
}

Result<Array> Array::adopt_spared(SparedLayout spared,
                                  core::CodecKind codec, bool integrity) {
  if (Status valid = validate_layout(spared.layout); !valid.ok())
    return valid;
  if (Status valid = validate_spare_map(spared); !valid.ok()) return valid;
  if (Status fit = validate_codec_fit(spared.layout, /*spared=*/true, codec);
      !fit.ok())
    return fit;
  if (count_data_units(spared.layout, /*spared=*/true,
                       core::codec_for(codec).num_parity()) == 0)
    return Status::invalid_argument(
        "layout holds no data units under distributed sparing");
  auto metrics = layout::compute_metrics(spared.layout);
  auto built = std::make_shared<const BuiltLayout>(
      BuiltLayout{spared.layout, Construction::kExternal,
                  "externally supplied layout (distributed sparing)",
                  std::move(metrics)});
  auto shared_spared =
      std::make_shared<const SparedLayout>(std::move(spared));
  Array array(std::move(built), std::move(shared_spared), codec);
  array.integrity_ = integrity;
  return array;
}

std::string Array::serialize() const {
  std::string body = spared_ ? layout::serialize_spared_layout(*spared_)
                             : layout::serialize_layout(layout());
  if (codec_kind_ != core::CodecKind::kXorParity)
    body = "pdl-array-codec " +
           std::string(core::codec_kind_name(codec_kind_)) + "\n" + body;
  // The integrity header composes outermost: it changes the on-media disk
  // format (the CRC region), so a reopened store must see it before
  // anything else.  XOR arrays without integrity keep the legacy
  // headerless form.
  if (integrity_) body = "pdl-array-integrity crc32c\n" + body;
  return body;
}

Result<Array> Array::deserialize(const std::string& text) {
  std::istringstream probe(text);
  std::string magic;
  probe >> magic;
  core::CodecKind codec = core::CodecKind::kXorParity;
  bool integrity = false;
  std::string body = text;
  if (magic == "pdl-array-integrity") {
    std::string scheme;
    probe >> scheme;
    if (scheme != "crc32c")
      return Status::parse_error("unknown checksum scheme '" + scheme +
                                 "' in pdl-array-integrity header");
    integrity = true;
    const std::size_t newline = body.find('\n');
    if (newline == std::string::npos)
      return Status::parse_error(
          "pdl-array-integrity header without a layout");
    body = body.substr(newline + 1);
    probe.str(body);
    probe.clear();
    probe >> magic;
  }
  if (magic == "pdl-array-codec") {
    std::string name;
    probe >> name;
    if (name == "rs") {
      codec = core::CodecKind::kReedSolomonPQ;
    } else if (name != "xor") {
      return Status::parse_error("unknown codec '" + name +
                                 "' in pdl-array-codec header");
    }
    const std::size_t newline = body.find('\n');
    if (newline == std::string::npos)
      return Status::parse_error("pdl-array-codec header without a layout");
    body = body.substr(newline + 1);
    probe.str(body);
    probe.clear();
    probe >> magic;
  }
  if (magic == "pdl-spared-layout") {
    auto spared = layout::parse_spared_layout(body);
    if (!spared.ok()) return spared.status();
    return adopt_spared(std::move(spared).value(), codec, integrity);
  }
  auto plain = layout::parse_layout(body);
  if (!plain.ok()) return plain.status();
  return adopt(std::move(plain).value(), codec, integrity);
}

Status Array::save(const std::string& path) const {
  // Through serialize(), not layout::save_*, so the codec and integrity
  // headers survive the round trip (save_layout would silently drop them
  // and a load() would come back as a headerless XOR array).
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::io_error("cannot open " + path + " for writing");
  out << serialize();
  out.close();
  if (!out) return Status::io_error("write failed: " + path);
  return OkStatus();
}

Result<Array> Array::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::io_error("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  if (in.bad()) return Status::io_error("read failed: " + path);
  return deserialize(text.str());
}

// ----------------------------------------------------------------- queries

std::uint32_t Array::num_disks() const noexcept {
  return layout().num_disks();
}

std::uint32_t Array::units_per_disk() const noexcept {
  return layout().units_per_disk();
}

std::uint32_t Array::num_stripes() const noexcept {
  return static_cast<std::uint32_t>(layout().num_stripes());
}

Array::LogicalRef Array::logical_ref(std::uint64_t logical) const noexcept {
  const std::uint64_t per_iter = data_units_.size();
  const UnitRef ref = data_units_[logical % per_iter];
  return {ref.stripe, ref.pos, logical / per_iter};
}

core::Construction Array::construction() const noexcept {
  return built_->construction;
}

const std::string& Array::description() const noexcept {
  return built_->description;
}

const layout::LayoutMetrics& Array::metrics() const noexcept {
  return built_->metrics;
}

const Layout& Array::layout() const noexcept {
  return spared_ ? spared_->layout : built_->layout;
}

const std::vector<std::uint32_t>& Array::spare_positions() const noexcept {
  static const std::vector<std::uint32_t> kEmpty;
  return spared_ ? spared_->spare_pos : kEmpty;
}

Result<DiskState> Array::disk_state(DiskId disk) const {
  if (disk >= disk_state_.size())
    return Status::invalid_argument("disk " + std::to_string(disk) +
                                    " out of range");
  return disk_state_[disk];
}

std::uint32_t Array::num_failed() const noexcept {
  std::uint32_t count = 0;
  for (const DiskState state : disk_state_)
    count += state != DiskState::kHealthy;
  return count;
}

bool Array::healthy() const noexcept {
  return num_failed() == 0 && lost_units_ == 0 && stripes_lost_ == 0;
}

// ------------------------------------------------------------- address ops

Status Array::map_batch(std::span<const std::uint64_t> logicals,
                        std::span<Physical> out) const {
  if (out.size() < logicals.size())
    return Status::invalid_argument(
        "output span holds " + std::to_string(out.size()) +
        " slots for " + std::to_string(logicals.size()) + " logicals");
  mapper_.map_batch(logicals, out);
  return OkStatus();
}

// ------------------------------------------------------------- serving ops

bool Array::is_content(std::uint32_t stripe,
                       std::uint32_t pos) const noexcept {
  return !spared_ || pos != spared_->spare_pos[stripe];
}

const StripeUnit& Array::cur_unit(std::uint32_t stripe,
                                  std::uint32_t pos) const noexcept {
  const Stripe& st = layout().stripes()[stripe];
  if (spared_ && redirect_[stripe] == pos)
    return st.units[spared_->spare_pos[stripe]];
  return st.units[pos];
}

std::uint64_t Array::decode_reads(std::uint32_t stripe,
                                  std::uint32_t pos) const noexcept {
  const auto width = static_cast<std::uint32_t>(
      layout().stripes()[stripe].units.size());
  const std::uint64_t all = width == 64 ? ~0ull : (1ull << width) - 1;
  const std::uint64_t gone = lost_mask_[stripe] | (1ull << pos);
  std::uint64_t reads = all & ~parity_mask_[stripe] & ~gone;
  if (spared_) reads &= ~(1ull << spared_->spare_pos[stripe]);
  auto need = stripe_num_data_[stripe] -
              static_cast<std::uint32_t>(std::popcount(reads));
  for (const std::uint32_t pp : parity_positions_[stripe]) {
    if (need == 0) break;
    if ((gone >> pp) & 1) continue;
    reads |= 1ull << pp;
    --need;
  }
  return reads;
}

std::uint32_t Array::erase_unread(std::uint32_t stripe, std::uint32_t pos,
                                  std::uint64_t reads,
                                  std::span<std::uint32_t> erased,
                                  std::uint32_t num_erased) const noexcept {
  for (const std::uint32_t pp : parity_positions_[stripe])
    if (pp != pos && !is_lost(stripe, pp) && !((reads >> pp) & 1))
      erased[num_erased++] = unit_index_[stripe][pp];
  return num_erased;
}

Result<ReadPlan> Array::locate(std::uint64_t logical,
                               std::span<Physical> survivors,
                               std::span<std::uint32_t> survivor_index) const {
  const std::uint64_t per_iter = data_units_.size();
  const std::uint64_t iteration = logical / per_iter;
  const UnitRef ref = data_units_[logical % per_iter];
  const std::uint64_t lift =
      iteration * static_cast<std::uint64_t>(units_per_disk());

  ReadPlan plan;
  if (!is_lost(ref.stripe, ref.pos)) {
    const StripeUnit& u = cur_unit(ref.stripe, ref.pos);
    plan.kind = ReadPlan::Kind::kDirect;
    plan.target = {u.disk, lift + u.offset};
    return plan;
  }
  if (unrecoverable_[ref.stripe]) {
    plan.kind = ReadPlan::Kind::kUnrecoverable;
    return plan;
  }

  // Degraded read: the survivor set is the units a decode reads, at
  // their current (redirect-aware) homes -- every surviving data unit,
  // then surviving parities in ordinal order up to num_data units (see
  // decode_reads).  Other lost units, then the parities left unread,
  // are reported through erased_index for the decode.
  const Stripe& st = layout().stripes()[ref.stripe];
  const std::uint64_t reads = decode_reads(ref.stripe, ref.pos);
  const auto count = static_cast<std::uint32_t>(std::popcount(reads));
  if (survivors.size() < count)
    return Status::invalid_argument(
        "survivor span holds " + std::to_string(survivors.size()) +
        " slots, stripe needs " + std::to_string(count) +
        " (max_stripe_size() - 1 always suffices)");
  if (!survivor_index.empty() && survivor_index.size() < count)
    return Status::invalid_argument(
        "survivor_index span holds " + std::to_string(survivor_index.size()) +
        " slots, stripe needs " + std::to_string(count));
  plan.num_data = stripe_num_data_[ref.stripe];
  plan.erased_index[plan.num_erased++] = unit_index_[ref.stripe][ref.pos];
  std::uint32_t i = 0;
  for (std::uint32_t p = 0; p < st.units.size(); ++p) {
    if (p == ref.pos || !is_content(ref.stripe, p)) continue;
    if (is_lost(ref.stripe, p)) {
      plan.erased_index[plan.num_erased++] = unit_index_[ref.stripe][p];
      continue;
    }
    if (!((reads >> p) & 1)) continue;
    const StripeUnit& u = cur_unit(ref.stripe, p);
    if (!survivor_index.empty())
      survivor_index[i] = unit_index_[ref.stripe][p];
    survivors[i++] = {u.disk, lift + u.offset};
  }
  plan.num_erased = erase_unread(ref.stripe, ref.pos, reads,
                                 plan.erased_index, plan.num_erased);
  plan.kind = ReadPlan::Kind::kDegraded;
  plan.num_survivors = count;
  return plan;
}

Result<WritePlan> Array::plan_write(std::uint64_t logical,
                                    std::span<Physical> peer_reads,
                                    std::span<std::uint32_t> peer_index) const {
  const std::uint64_t per_iter = data_units_.size();
  const std::uint64_t iteration = logical / per_iter;
  const UnitRef ref = data_units_[logical % per_iter];
  const std::uint64_t lift =
      iteration * static_cast<std::uint64_t>(units_per_disk());
  const Stripe& st = layout().stripes()[ref.stripe];
  const std::vector<std::uint32_t>& parities = parity_positions_[ref.stripe];
  const std::uint32_t kd = stripe_num_data_[ref.stripe];

  const bool data_lost = is_lost(ref.stripe, ref.pos);

  WritePlan plan;
  if (data_lost && unrecoverable_[ref.stripe]) {
    plan.kind = WritePlan::Kind::kUnrecoverable;
    return plan;
  }
  plan.num_data = kd;
  plan.data_index = unit_index_[ref.stripe][ref.pos];
  // The surviving parity units, ordinal order (P before Q).
  for (std::uint32_t j = 0; j < parities.size(); ++j) {
    const std::uint32_t pp = parities[j];
    if (is_lost(ref.stripe, pp)) continue;
    const StripeUnit& p = cur_unit(ref.stripe, pp);
    plan.parity_targets[plan.num_parities] = {p.disk, lift + p.offset};
    plan.parity_index[plan.num_parities] = j;
    ++plan.num_parities;
  }

  if (!data_lost && plan.num_parities > 0) {
    const StripeUnit& d = cur_unit(ref.stripe, ref.pos);
    plan.kind = WritePlan::Kind::kReadModifyWrite;
    plan.data = {d.disk, lift + d.offset};
    return plan;
  }
  if (data_lost) {
    // Fold the new value into the surviving parities: read the other
    // surviving data peers, write the parity units.  Any other erased
    // content unit is reported through erased_index so a multi-parity
    // store can decode it before re-encoding.
    plan.erased_index[plan.num_erased++] = plan.data_index;
    std::uint32_t count = 0;
    for (std::uint32_t p = 0; p < st.units.size(); ++p) {
      if (p == ref.pos || !is_content(ref.stripe, p)) continue;
      if (unit_index_[ref.stripe][p] >= kd) continue;  // parity
      if (is_lost(ref.stripe, p)) {
        plan.erased_index[plan.num_erased++] = unit_index_[ref.stripe][p];
        continue;
      }
      ++count;
    }
    for (const std::uint32_t pp : parities)
      if (is_lost(ref.stripe, pp))
        plan.erased_index[plan.num_erased++] = unit_index_[ref.stripe][pp];
    plan.kind = WritePlan::Kind::kReconstructWrite;
    plan.num_peer_reads = count;
    if (peer_reads.empty()) return plan;  // count the peers, list none
    if (peer_reads.size() < count)
      return Status::invalid_argument(
          "peer span holds " + std::to_string(peer_reads.size()) +
          " slots, stripe needs " + std::to_string(count));
    if (!peer_index.empty() && peer_index.size() < count)
      return Status::invalid_argument(
          "peer_index span holds " + std::to_string(peer_index.size()) +
          " slots, stripe needs " + std::to_string(count));
    std::uint32_t i = 0;
    for (std::uint32_t p = 0; p < st.units.size(); ++p) {
      if (p == ref.pos || !is_content(ref.stripe, p)) continue;
      if (unit_index_[ref.stripe][p] >= kd) continue;  // parity
      if (is_lost(ref.stripe, p)) continue;
      const StripeUnit& u = cur_unit(ref.stripe, p);
      if (!peer_index.empty()) peer_index[i] = unit_index_[ref.stripe][p];
      peer_reads[i++] = {u.disk, lift + u.offset};
    }
    return plan;
  }
  // Every parity lost, data intact: the stripe is unprotected; write the
  // data.
  const StripeUnit& d = cur_unit(ref.stripe, ref.pos);
  plan.kind = WritePlan::Kind::kUnprotectedWrite;
  plan.data = {d.disk, lift + d.offset};
  return plan;
}

Result<std::uint32_t> Array::stripe_units(
    std::uint32_t stripe, std::span<StripeUnitStatus> out) const {
  if (stripe >= num_stripes())
    return Status::invalid_argument("stripe " + std::to_string(stripe) +
                                    " out of range");
  const Stripe& st = layout().stripes()[stripe];
  const std::uint32_t width = stripe_num_data_[stripe] + num_parity_;
  if (out.size() < width)
    return Status::invalid_argument(
        "unit span holds " + std::to_string(out.size()) +
        " slots, stripe needs " + std::to_string(width));
  for (std::uint32_t p = 0; p < st.units.size(); ++p) {
    if (!is_content(stripe, p)) continue;
    const std::uint32_t index = unit_index_[stripe][p];
    const bool lost = is_lost(stripe, p);
    // A lost unit has no readable copy; its home slot is still the
    // address rebuild will repopulate, so report that.
    const StripeUnit& u = lost ? st.units[p] : cur_unit(stripe, p);
    out[index] = {index, {u.disk, u.offset}, lost};
  }
  return width;
}

// -------------------------------------------------------------- transitions

void Array::mark_lost(std::uint32_t stripe, std::uint32_t pos) {
  if (unrecoverable_[stripe]) {
    lost_mask_[stripe] |= 1ull << pos;
    return;
  }
  if (is_lost(stripe, pos)) return;
  lost_mask_[stripe] |= 1ull << pos;
  if (std::popcount(lost_mask_[stripe]) > static_cast<int>(num_parity_)) {
    // One concurrent loss more than the codec tolerates: the stripe is
    // gone.  Its previously pending unit(s) leave the rebuild queue.
    unrecoverable_[stripe] = 1;
    ++stripes_lost_;
    const Stripe& st = layout().stripes()[stripe];
    std::uint64_t others = lost_mask_[stripe] & ~(1ull << pos);
    while (others != 0) {
      const auto p = static_cast<std::uint32_t>(std::countr_zero(others));
      others &= others - 1;
      --lost_units_;
      const DiskId home = st.units[p].disk;
      if (--pending_home_[home] == 0 &&
          disk_state_[home] == DiskState::kRebuilding)
        disk_state_[home] = DiskState::kHealthy;
    }
    return;
  }
  ++lost_units_;
  ++pending_home_[layout().stripes()[stripe].units[pos].disk];
}

Status Array::fail_disk(DiskId disk) {
  if (disk >= disk_state_.size())
    return Status::invalid_argument("disk " + std::to_string(disk) +
                                    " out of range");
  if (disk_state_[disk] != DiskState::kHealthy)
    return Status::failed_precondition(
        "disk " + std::to_string(disk) + " is already " +
        std::string(disk_state_name(disk_state_[disk])));
  disk_state_[disk] = DiskState::kFailed;

  for (const HomeRef& ref : disk_units_[disk]) {
    if (spared_ && ref.pos == spared_->spare_pos[ref.stripe]) {
      // The stripe's unit on the failed disk is its spare slot.  If a
      // rebuilt unit lived there, that content is lost again; an empty
      // spare costs only capacity.
      if (redirect_[ref.stripe] != kNone) {
        const std::uint32_t q = redirect_[ref.stripe];
        redirect_[ref.stripe] = kNone;
        mark_lost(ref.stripe, q);
      }
      continue;
    }
    if (spared_ && redirect_[ref.stripe] == ref.pos)
      continue;  // content moved to the spare earlier; home slot is empty
    mark_lost(ref.stripe, ref.pos);
  }
  return OkStatus();
}

Status Array::replace_disk(DiskId disk) {
  if (disk >= disk_state_.size())
    return Status::invalid_argument("disk " + std::to_string(disk) +
                                    " out of range");
  if (disk_state_[disk] != DiskState::kFailed)
    return Status::failed_precondition(
        "disk " + std::to_string(disk) + " is " +
        std::string(disk_state_name(disk_state_[disk])) +
        "; only a failed disk can be replaced");
  disk_state_[disk] = pending_home_[disk] > 0 ? DiskState::kRebuilding
                                              : DiskState::kHealthy;
  return OkStatus();
}

std::optional<Physical> Array::rebuild_target(std::uint32_t stripe,
                                              std::uint32_t pos,
                                              bool& to_spare,
                                              bool allow_spare) const {
  const Stripe& st = layout().stripes()[stripe];
  if (spared_ && allow_spare) {
    const std::uint32_t sp = spared_->spare_pos[stripe];
    const StripeUnit& spare = st.units[sp];
    if (redirect_[stripe] == kNone &&
        disk_state_[spare.disk] == DiskState::kHealthy) {
      to_spare = true;
      return Physical{spare.disk, spare.offset};
    }
  }
  const StripeUnit& home = st.units[pos];
  if (disk_state_[home.disk] != DiskState::kFailed) {
    to_spare = false;
    return Physical{home.disk, home.offset};
  }
  return std::nullopt;
}

Result<RebuildPlan> Array::plan_rebuild() const {
  RebuildPlan plan;
  plan.reads_per_disk.assign(num_disks(), 0);
  plan.writes_per_disk.assign(num_disks(), 0);
  const auto& stripes = layout().stripes();
  for (std::uint32_t si = 0; si < stripes.size(); ++si) {
    if (lost_mask_[si] == 0) continue;
    if (unrecoverable_[si]) {
      ++plan.unrecoverable;
      continue;
    }
    // A recoverable stripe has at most num_parity_ lost units; plan one
    // step per lost unit.  Only one step may claim the stripe's spare --
    // later steps of the same stripe steer to their home slots so a
    // planned batch stays applicable in order.
    bool spare_free = !spared_ || redirect_[si] == kNone;
    std::uint64_t lost = lost_mask_[si];
    while (lost != 0) {
      const auto pos = static_cast<std::uint32_t>(std::countr_zero(lost));
      lost &= lost - 1;
      bool to_spare = false;
      const auto target = rebuild_target(si, pos, to_spare, spare_free);
      if (!target) {
        ++plan.blocked;
        continue;
      }
      if (to_spare) spare_free = false;
      RebuildStep step;
      step.stripe = si;
      step.lost_pos = pos;
      step.to_spare = to_spare;
      step.target = *target;
      step.num_data = stripe_num_data_[si];
      step.target_index = unit_index_[si][pos];
      step.erased_index[step.num_erased++] = step.target_index;
      const Stripe& st = stripes[si];
      const std::uint64_t reads = decode_reads(si, pos);
      step.reads.reserve(static_cast<std::size_t>(std::popcount(reads)));
      step.read_indices.reserve(step.reads.capacity());
      for (std::uint32_t p = 0; p < st.units.size(); ++p) {
        if (p == pos || !is_content(si, p)) continue;
        if (is_lost(si, p)) {
          step.erased_index[step.num_erased++] = unit_index_[si][p];
          continue;
        }
        if (!((reads >> p) & 1)) continue;
        const StripeUnit& u = cur_unit(si, p);
        step.reads.push_back({u.disk, u.offset});
        step.read_indices.push_back(unit_index_[si][p]);
        ++plan.reads_per_disk[u.disk];
      }
      step.num_erased =
          erase_unread(si, pos, reads, step.erased_index, step.num_erased);
      ++plan.writes_per_disk[target->disk];
      plan.steps.push_back(std::move(step));
    }
  }
  return plan;
}

Status Array::apply_rebuild_step(const RebuildStep& step) {
  const auto& stripes = layout().stripes();
  if (step.stripe >= stripes.size())
    return Status::invalid_argument("stripe " + std::to_string(step.stripe) +
                                    " out of range");
  const Stripe& st = stripes[step.stripe];
  if (step.lost_pos >= st.units.size())
    return Status::invalid_argument("position " +
                                    std::to_string(step.lost_pos) +
                                    " out of range");
  if (unrecoverable_[step.stripe])
    return Status::failed_precondition(
        "stripe " + std::to_string(step.stripe) +
        " is unrecoverable; its units cannot be rebuilt");
  if (!is_lost(step.stripe, step.lost_pos))
    return Status::failed_precondition(
        "stale step: the unit is not lost (already rebuilt?)");

  // The step's target must still be writable and consistent: either the
  // stripe's own (still empty, still healthy) spare unit, or the home
  // slot on a disk that is not failed.  Accepting either valid choice --
  // not just the one plan_rebuild would pick right now -- keeps a planned
  // batch applicable even as disks finish rebuilding mid-batch.
  if (step.to_spare) {
    if (!spared_)
      return Status::failed_precondition(
          "stale step: array has no distributed sparing");
    const std::uint32_t sp = spared_->spare_pos[step.stripe];
    const StripeUnit& spare = st.units[sp];
    if (redirect_[step.stripe] != kNone)
      return Status::failed_precondition(
          "stale step: the stripe's spare is already consumed");
    if (disk_state_[spare.disk] != DiskState::kHealthy)
      return Status::failed_precondition(
          "stale step: the spare's disk is not healthy");
    if (step.target != Physical{spare.disk, spare.offset})
      return Status::failed_precondition(
          "stale step: target is not the stripe's spare unit");
  } else {
    const StripeUnit& home = st.units[step.lost_pos];
    if (disk_state_[home.disk] == DiskState::kFailed)
      return Status::failed_precondition(
          "stale step: the home disk has no replacement attached");
    if (step.target != Physical{home.disk, home.offset})
      return Status::failed_precondition(
          "stale step: target is not the unit's home slot");
  }

  lost_mask_[step.stripe] &= ~(1ull << step.lost_pos);
  --lost_units_;
  if (step.to_spare) redirect_[step.stripe] = step.lost_pos;
  const DiskId home = st.units[step.lost_pos].disk;
  if (--pending_home_[home] == 0 &&
      disk_state_[home] == DiskState::kRebuilding)
    disk_state_[home] = DiskState::kHealthy;
  return OkStatus();
}

Result<RebuildOutcome> Array::rebuild() {
  RebuildOutcome outcome;
  for (;;) {
    auto plan = plan_rebuild();
    if (!plan.ok()) return plan.status();
    if (plan->steps.empty()) {
      outcome.blocked = plan->blocked;
      return outcome;
    }
    for (const RebuildStep& step : plan->steps) {
      if (Status applied = apply_rebuild_step(step); !applied.ok())
        return applied;
      ++outcome.applied;
    }
    // Re-plan: a disk finishing its rebuild mid-batch can make spare
    // units usable again and unblock further stripes.
  }
}

}  // namespace pdl::api
