// Experiment Estore: object-store substrate throughput — interning,
// hierarchy closure maintenance, scalar/set method facts and lookups,
// and the durability layer (WAL append and recovery replay).

#include <benchmark/benchmark.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <stdlib.h>

#include <filesystem>
#include <memory>
#include <string>

#include "base/strings.h"
#include "bench_util.h"
#include "store/file_ops.h"
#include "store/snapshot.h"
#include "store/wal.h"

namespace pathlog {
namespace {

void BM_Store_InternSymbols(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    ObjectStore store;
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      benchmark::DoNotOptimize(store.InternSymbol(StrCat("sym", i)));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Store_InternSymbols)->Arg(10000)->Arg(100000);

void BM_Store_InternHit(benchmark::State& state) {
  ObjectStore store;
  for (int64_t i = 0; i < 10000; ++i) store.InternSymbol(StrCat("sym", i));
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.InternSymbol(StrCat("sym", i % 10000)));
    ++i;
  }
}
BENCHMARK(BM_Store_InternHit);

void BM_Store_IsaFlatClass(benchmark::State& state) {
  // n members directly under one class: the common shape.
  for (auto _ : state) {
    state.PauseTiming();
    ObjectStore store;
    Oid c = store.InternSymbol("c");
    std::vector<Oid> members;
    for (int64_t i = 0; i < state.range(0); ++i) {
      members.push_back(store.InternSymbol(StrCat("o", i)));
    }
    state.ResumeTiming();
    for (Oid o : members) {
      bench::Check(store.AddIsa(o, c), "isa");
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Store_IsaFlatClass)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_Store_IsaDeepChain(benchmark::State& state) {
  // A subclass chain of depth n: the closure-maintenance worst case.
  for (auto _ : state) {
    state.PauseTiming();
    ObjectStore store;
    std::vector<Oid> classes;
    for (int64_t i = 0; i < state.range(0); ++i) {
      classes.push_back(store.InternSymbol(StrCat("c", i)));
    }
    state.ResumeTiming();
    for (size_t i = 0; i + 1 < classes.size(); ++i) {
      bench::Check(store.AddIsa(classes[i + 1], classes[i]), "isa");
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Store_IsaDeepChain)->Arg(100)->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_Store_ScalarInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    ObjectStore store;
    Oid m = store.InternSymbol("m");
    std::vector<Oid> objs;
    for (int64_t i = 0; i < state.range(0); ++i) {
      objs.push_back(store.InternSymbol(StrCat("o", i)));
    }
    state.ResumeTiming();
    for (size_t i = 0; i + 1 < objs.size(); ++i) {
      bench::Check(store.SetScalar(m, objs[i], {}, objs[i + 1]), "set");
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Store_ScalarInsert)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_Store_ScalarLookup(benchmark::State& state) {
  ObjectStore store;
  Oid m = store.InternSymbol("m");
  std::vector<Oid> objs;
  for (int64_t i = 0; i < 100000; ++i) {
    objs.push_back(store.InternSymbol(StrCat("o", i)));
  }
  for (size_t i = 0; i + 1 < objs.size(); ++i) {
    bench::Check(store.SetScalar(m, objs[i], {}, objs[i + 1]), "set");
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.GetScalar(m, objs[i % 99999], {}));
    ++i;
  }
}
BENCHMARK(BM_Store_ScalarLookup);

void BM_Store_SetMemberInsert(benchmark::State& state) {
  // One receiver with a growing member set plus many small groups.
  for (auto _ : state) {
    state.PauseTiming();
    ObjectStore store;
    Oid m = store.InternSymbol("m");
    Oid hub = store.InternSymbol("hub");
    std::vector<Oid> objs;
    for (int64_t i = 0; i < state.range(0); ++i) {
      objs.push_back(store.InternSymbol(StrCat("o", i)));
    }
    state.ResumeTiming();
    for (Oid o : objs) {
      benchmark::DoNotOptimize(store.AddSetMember(m, hub, {}, o));
      benchmark::DoNotOptimize(store.AddSetMember(m, o, {}, hub));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_Store_SetMemberInsert)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// A store of n objects chained by scalar facts, plus the WAL image
/// that CommitDurable would write for it (interns then facts).
struct WalFixture {
  ObjectStore store;
  std::string wal;

  explicit WalFixture(int64_t n) {
    Oid m = store.InternSymbol("m");
    std::vector<Oid> objs;
    for (int64_t i = 0; i < n; ++i) {
      objs.push_back(store.InternSymbol(StrCat("o", i)));
    }
    for (size_t i = 0; i + 1 < objs.size(); ++i) {
      bench::Check(store.SetScalar(m, objs[i], {}, objs[i + 1]), "set");
    }
    wal.assign(kWalMagic, kWalMagicLen);
    for (Oid o = 0; o < store.UniverseSize(); ++o) {
      AppendWalFrame(&wal, EncodeWalIntern(o, store.kind(o), 0,
                                           store.DisplayName(o)));
    }
    for (uint64_t g = 0; g < store.generation(); ++g) {
      AppendWalFrame(&wal, EncodeWalFact(g, store.FactAt(g)));
    }
  }

  uint64_t records() const {
    return store.UniverseSize() + store.generation();
  }

  /// Commits every record of the image through `log`, as one batch.
  void Commit(DurableLog* log) const {
    bench::Check(log->Commit([this](DurableLog::Batch& batch) {
      for (Oid o = 0; o < store.UniverseSize(); ++o) {
        PATHLOG_RETURN_IF_ERROR(batch.Append(
            EncodeWalIntern(o, store.kind(o), 0, store.DisplayName(o))));
      }
      for (uint64_t g = 0; g < store.generation(); ++g) {
        PATHLOG_RETURN_IF_ERROR(
            batch.Append(EncodeWalFact(g, store.FactAt(g))));
      }
      return Status::OK();
    }), "commit");
  }
};

std::unique_ptr<DurableLog> OpenLog(FileOps* fops, const std::string& path) {
  return bench::CheckResult(
      DurableLog::Open(fops, path, DurabilityOptions{},
                       [](WalRecord&) { return Status::OK(); }),
      "open");
}

void BM_Store_WalAppend(benchmark::State& state) {
  // One commit of N records plus its fsync through DurableLog::Commit:
  // encode, frame and append each record into the in-memory file
  // system, the logging path with the disk factored out.
  WalFixture fx(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    FaultInjectingFileOps fs;
    std::unique_ptr<DurableLog> log = OpenLog(&fs, "/wal");
    state.ResumeTiming();
    fx.Commit(log.get());
  }
  state.SetItemsProcessed(state.iterations() * fx.records());
}
BENCHMARK(BM_Store_WalAppend)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_Store_WalCommitFile(benchmark::State& state) {
  // The same commit into a real file in a temporary directory, with its
  // fsync: the write calls the in-memory file system hides. Timed by
  // the wall clock, which the fsync's wait is part of.
  WalFixture fx(state.range(0));
  std::string dir = (std::filesystem::temp_directory_path() /
                     "pathlog_bench_walXXXXXX")
                        .string();
  bench::Check(mkdtemp(dir.data()) != nullptr
                   ? Status::OK()
                   : Internal("mkdtemp failed"),
               "temporary directory");
  const std::string path = dir + "/wal.plgwal";
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove(path);
    std::unique_ptr<DurableLog> log = OpenLog(DefaultFileOps(), path);
    state.ResumeTiming();
    fx.Commit(log.get());
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations() * fx.records());
}
BENCHMARK(BM_Store_WalCommitFile)->Arg(10000)->Arg(100000)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_Store_WalRecovery(benchmark::State& state) {
  // Scan (CRC every frame) and replay a WAL into an empty store: the
  // startup cost a durable database pays per un-checkpointed record.
  WalFixture fx(state.range(0));
  for (auto _ : state) {
    ObjectStore recovered;
    Result<WalScan> scan = ScanWal(fx.wal);
    bench::Check(scan.status(), "scan");
    for (const WalRecord& rec : scan->records) {
      bench::Check(ApplyWalRecordToStore(rec, &recovered), "replay");
    }
    benchmark::DoNotOptimize(recovered.generation());
  }
  state.SetItemsProcessed(state.iterations() * fx.records());
}
BENCHMARK(BM_Store_WalRecovery)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_Store_WalScanOnly(benchmark::State& state) {
  // The pure integrity pass: frame walk + CRC32, no store mutation.
  WalFixture fx(state.range(0));
  for (auto _ : state) {
    Result<WalScan> scan = ScanWal(fx.wal);
    bench::Check(scan.status(), "scan");
    benchmark::DoNotOptimize(scan->records.size());
  }
  state.SetItemsProcessed(state.iterations() * fx.records());
  state.SetBytesProcessed(state.iterations() * fx.wal.size());
}
BENCHMARK(BM_Store_WalScanOnly)->Arg(10000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_Store_SnapshotLoad(benchmark::State& state) {
  // Deserialise the snapshot of a materialised company store (the
  // serve workload's rules over N employees): the reopen cost per fact,
  // and the heap the loaded store holds per fact, as glibc's malloc
  // counts it, next to the store's own ApproxBytes estimate.
  std::string snapshot;
  {
    ObjectStore generated;
    GenerateCompany(&generated, bench::ScaledCompany(state.range(0)));
    Database db;
    bench::Check(db.Load(StoreToProgramText(generated)), "load facts");
    bench::Check(
        db.Load("X[reports->>{Y}] <- Y[boss->X].\n"
                "X[reports->>{Y}] <- X[reports->>{Z}], Z[reports->>{Y}].\n"
                "X.deputy[assists->X; inDept->D] <- X:manager, "
                "X[worksFor->D].\n"
                "X[ownsAutomobile->>{V}] <- V : automobile, "
                "X[vehicles->>{V}].\n"),
        "load rules");
    bench::Check(db.Materialize(), "materialize");
    snapshot = bench::CheckResult(SerializeSnapshot(db.store()), "serialize");
  }
  double facts = 0, heap = 0, approx = 0;
  for (auto _ : state) {
#if defined(__GLIBC__)
    const size_t before = mallinfo2().uordblks + mallinfo2().hblkhd;
#endif
    Result<ObjectStore> store = DeserializeSnapshot(snapshot);
    bench::Check(store.status(), "deserialize");
#if defined(__GLIBC__)
    heap = static_cast<double>(mallinfo2().uordblks + mallinfo2().hblkhd -
                               before);
#endif
    facts = static_cast<double>(store->FactCount());
    approx = static_cast<double>(store->ApproxBytes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(facts));
  state.counters["heap_bytes_per_fact"] = heap / facts;
  state.counters["approx_bytes_per_fact"] = approx / facts;
}
BENCHMARK(BM_Store_SnapshotLoad)->Arg(2000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);

void BM_Store_MembersScan(benchmark::State& state) {
  ObjectStore store;
  CompanyData data =
      GenerateCompany(&store, bench::ScaledCompany(state.range(0)));
  for (auto _ : state) {
    size_t total = 0;
    for (Oid o : store.Members(data.employee_class)) {
      total += o;
    }
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_Store_MembersScan)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace pathlog
