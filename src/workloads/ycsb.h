/**
 * @file
 * YCSB core-workload driver over the KV store (DESIGN.md §13).
 *
 * Implements the six standard mixes (Cooper et al., SoCC'10) against
 * KvStore, with the reference key-chooser machinery:
 *
 *   A  50% read / 50% update          zipfian
 *   B  95% read /  5% update          zipfian
 *   C 100% read                       zipfian
 *   D  95% read (latest) / 5% insert  read-latest
 *   E  95% scan /  5% insert          zipfian (scan len uniform 1..max)
 *   F  50% read / 50% read-modify-write  zipfian
 *
 * Key choosing follows the YCSB reference implementation: a zipfian
 * distribution over the item count (zeta precomputed, theta = 0.99 by
 * default) whose rank is *scrambled* by an FNV hash so the hot keys
 * are spread over the keyspace instead of clustered at the low ids.
 * Everything is seeded: the same YcsbSpec replays the identical op
 * stream, which is what makes the crash sweep's oracle and the bench
 * baselines possible. Throughput rides the harness's virtual-time
 * methodology (harness.h), so t=1 rows are exactly reproducible.
 */

#ifndef NVALLOC_WORKLOADS_YCSB_H
#define NVALLOC_WORKLOADS_YCSB_H

#include <atomic>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "kv/kv_store.h"
#include "workloads/harness.h"

namespace nvalloc {

/** Zipfian rank chooser (YCSB's ZipfianGenerator): ranks in
 *  [0, items) with P(rank) ∝ 1/(rank+1)^theta. Deterministic given
 *  the caller's Rng. */
class ZipfianGenerator
{
  public:
    explicit ZipfianGenerator(uint64_t items, double theta = 0.99);

    uint64_t next(Rng &rng) const;
    uint64_t items() const { return items_; }

  private:
    uint64_t items_;
    double theta_;
    double zetan_;
    double zeta2_;
    double alpha_;
    double eta_;
};

enum class YcsbWorkload : uint8_t
{
    A,
    B,
    C,
    D,
    E,
    F,
};

const char *ycsbWorkloadName(YcsbWorkload w);

struct YcsbSpec
{
    YcsbWorkload workload = YcsbWorkload::A;
    uint64_t record_count = 1'000'000; //!< load phase inserts
    uint64_t op_count = 1'000'000;     //!< run phase ops (all threads)
    unsigned threads = 8;
    bool zipfian = true; //!< false = uniform key chooser
    double theta = 0.99;
    uint32_t value_min = 64;
    uint32_t value_max = 256;
    /** Every Nth insert/update carries a large value (0 = never):
     *  drives the small+large allocation mix through the store. */
    uint32_t large_value_every = 1024;
    uint32_t large_value_size = 16384;
    unsigned scan_len = 16; //!< max records per scan (workload E)
    uint64_t seed = 42;
};

struct YcsbResult
{
    RunResult load;
    RunResult run;
    uint64_t reads = 0;
    uint64_t updates = 0;
    uint64_t inserts = 0;
    uint64_t scans = 0;
    uint64_t rmws = 0;
    uint64_t not_found = 0; //!< reads racing inserts (workload D)
    uint64_t errors = 0;    //!< any non-Ok/NotFound op outcome
};

/** The YCSB key for a record id: "user" + FNV-hashed decimal, the
 *  reference implementation's "hashed insert order" naming — the
 *  zipfian chooser's hot low ranks land spread over the keyspace. */
std::string ycsbKey(uint64_t id);

/** Deterministic value content for (id, version): verification after
 *  a crash recomputes the expected bytes instead of storing them. */
std::string ycsbValue(uint64_t id, uint64_t version, uint32_t len);

/**
 * Load phase: insert ids [0, spec.record_count) across spec.threads
 * workers. `store` must be empty/fresh for exact-count semantics.
 */
YcsbResult ycsbLoad(KvStore &store, const YcsbSpec &spec,
                    VtimeEpoch &epoch);

/**
 * Run phase: spec.op_count ops in spec.workload's mix. `inserted`
 * carries the next insert id across phases (ycsbLoad leaves it at
 * record_count) and is bumped before each insert runs; workload D
 * reads cluster below the newest id whose insert, and every earlier
 * one, has completed.
 * Returns per-op-type counts; `errors` should be zero on a healthy
 * heap.
 */
YcsbResult ycsbRun(KvStore &store, const YcsbSpec &spec,
                   VtimeEpoch &epoch,
                   std::atomic<uint64_t> &inserted);

} // namespace nvalloc

#endif // NVALLOC_WORKLOADS_YCSB_H
