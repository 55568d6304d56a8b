/**
 * @file bgl.h
 * @brief Public C API of the library: a uniform interface for computing
 * phylogenetic likelihoods on heterogeneous hardware.
 *
 * The API mirrors the BEAGLE design the paper describes: the library has no
 * tree data structure. Client programs own the tree; they drive the library
 * through flexibly indexed buffers of partial likelihoods, transition
 * matrices, eigendecompositions and scale factors, which lets one API serve
 * serial CPU, vectorized CPU, threaded CPU, and accelerator-framework
 * implementations without data-layout assumptions leaking into clients.
 *
 * All functions return BGL_SUCCESS (0) or a negative BglReturnCode.
 */
#ifndef BGL_H
#define BGL_H

#ifdef __cplusplus
extern "C" {
#endif

/** Error codes returned by all API functions. */
typedef enum BglReturnCode {
  BGL_SUCCESS = 0,
  BGL_ERROR_GENERAL = -1,
  BGL_ERROR_OUT_OF_MEMORY = -2,
  BGL_ERROR_UNIDENTIFIED_EXCEPTION = -3,
  BGL_ERROR_UNIMPLEMENTED = -4,
  BGL_ERROR_OUT_OF_RANGE = -5,
  BGL_ERROR_NO_RESOURCE = -6,
  BGL_ERROR_NO_IMPLEMENTATION = -7,
  BGL_ERROR_FLOATING_POINT = -8,
  BGL_ERROR_HARDWARE = -9,       /**< device/runtime failure (launch, transfer) */
  BGL_ERROR_REJECTED = -10       /**< admission control refused the request
                                      (quota, backpressure, or load shedding);
                                      retry later or against another pool */
} BglReturnCode;

/**
 * Capability / preference flags (bitwise-or'able). Used both to describe
 * resources and to request instance properties.
 */
typedef enum BglFlags {
  BGL_FLAG_PRECISION_SINGLE = 1L << 0,   /**< 32-bit floating point */
  BGL_FLAG_PRECISION_DOUBLE = 1L << 1,   /**< 64-bit floating point */

  BGL_FLAG_COMPUTATION_SYNCH = 1L << 2,  /**< synchronous computation */
  BGL_FLAG_COMPUTATION_ASYNCH = 1L << 3, /**< asynchronous computation */

  BGL_FLAG_VECTOR_NONE = 1L << 4,        /**< no explicit vectorization */
  BGL_FLAG_VECTOR_SSE = 1L << 5,         /**< SSE intrinsics */
  BGL_FLAG_VECTOR_AVX = 1L << 6,         /**< AVX intrinsics */

  BGL_FLAG_THREADING_NONE = 1L << 7,     /**< single host thread */
  BGL_FLAG_THREADING_CPP = 1L << 8,      /**< C++ std::thread parallelism */

  BGL_FLAG_PROCESSOR_CPU = 1L << 9,      /**< multicore CPU */
  BGL_FLAG_PROCESSOR_GPU = 1L << 10,     /**< GPU device */
  BGL_FLAG_PROCESSOR_PHI = 1L << 11,     /**< manycore (Phi-class) device */

  BGL_FLAG_FRAMEWORK_CPU = 1L << 12,     /**< native host code */
  BGL_FLAG_FRAMEWORK_CUDA = 1L << 13,    /**< CUDA-framework accelerator model */
  BGL_FLAG_FRAMEWORK_OPENCL = 1L << 14,  /**< OpenCL-framework accelerator model */

  BGL_FLAG_SCALING_MANUAL = 1L << 15,    /**< client-directed rescaling */
  /**
   * Rescale every partials operation automatically. The library assigns
   * scale buffer (destination - tipCount) to each operation, resets and
   * maintains the cumulative buffer (index scaleBufferCount - 1) across
   * each bglUpdatePartials batch, and applies it in root/edge
   * calculations when the caller passes no cumulative index. Requires
   * scaleBufferCount >= internal-node count + 1.
   */
  BGL_FLAG_SCALING_ALWAYS = 1L << 16,

  /* Threading-strategy ablation flags (Section VI / Table III). */
  BGL_FLAG_THREADING_FUTURES = 1L << 17,      /**< per-operation async futures */
  BGL_FLAG_THREADING_THREAD_CREATE = 1L << 18,/**< threads created per call */
  BGL_FLAG_THREADING_THREAD_POOL = 1L << 19,  /**< persistent thread pool */

  /* Kernel-variant selection for the accelerator model (Section VII-B). */
  BGL_FLAG_KERNEL_GPU_STYLE = 1L << 20,  /**< state-parallel work-items */
  BGL_FLAG_KERNEL_X86_STYLE = 1L << 21,  /**< state-loop per work-item */

  /* Disable fused-multiply-add kernel generation (FP_FAST_FMA ablation,
   * Table IV of the paper). */
  BGL_FLAG_FMA_OFF = 1L << 22,

  /* Load-balancing policy hints for the heterogeneous scheduler. These are
   * resolved by the implementation manager, not by any backend: they never
   * disqualify a factory, and they are carried through into the resolved
   * instance flags so multi-instance consumers (pattern splitting, resource
   * auto-selection) can read the requested policy back. */
  BGL_FLAG_LOADBALANCE_NONE = 1L << 23,      /**< equal round-robin sharding */
  BGL_FLAG_LOADBALANCE_BENCHMARK = 1L << 24, /**< calibrate resources by running
                                                  the benchmark workload */
  BGL_FLAG_LOADBALANCE_MODEL = 1L << 25,     /**< seed speed estimates from the
                                                  perf-model device profiles */
  BGL_FLAG_LOADBALANCE_ADAPTIVE = 1L << 26,  /**< proportional sharding plus
                                                  EWMA-driven rebalancing */

  BGL_FLAG_PROCESSOR_FPGA = 1L << 27,        /**< FPGA-class device (no built-in
                                                  backend; plugin capability) */

  BGL_FLAG_COMPUTATION_PIPELINE = 1L << 28   /**< cross-call pipelining: issue
                                                  transition matrices and
                                                  partials on separate device
                                                  streams with event-ordered
                                                  overlap (implies ASYNCH;
                                                  synchronous CPU families
                                                  accept it as a no-op) */
} BglFlags;

/** Description of a hardware resource usable by the library. */
typedef struct BglResource {
  const char* name;        /**< human-readable device name */
  const char* description; /**< vendor / capability summary */
  long supportFlags;       /**< flags the resource can satisfy */
  long requiredFlags;      /**< flags any instance on it will carry */
} BglResource;

/** List of available hardware resources. */
typedef struct BglResourceList {
  BglResource* list;
  int length;
} BglResourceList;

/** Details of a successfully created instance. */
typedef struct BglInstanceDetails {
  int resourceNumber;      /**< index into the resource list */
  const char* resourceName;
  const char* implName;    /**< name of the selected implementation */
  long flags;              /**< resolved instance flags */
} BglInstanceDetails;

/**
 * One partial-likelihoods operation: compute the partials of
 * destinationPartials from two children, each a (buffer, transition matrix)
 * pair. Scale indices are BGL_OP_NONE when unused.
 */
typedef struct BglOperation {
  int destinationPartials;
  int destinationScaleWrite;
  int destinationScaleRead;
  int child1Partials;
  int child1TransitionMatrix;
  int child2Partials;
  int child2TransitionMatrix;
} BglOperation;

#define BGL_OP_NONE (-1)
#define BGL_OP_COUNT 7

/**
 * One partial-likelihoods operation restricted to a data partition: the
 * BglOperation fields plus the partition the operation evaluates. The
 * operation touches only the partition's pattern range (set with
 * bglSetPatternPartitions); its transition-matrix indices normally point at
 * matrices derived from that partition's substitution model
 * (bglUpdateTransitionMatricesWithModels).
 */
typedef struct BglOperationByPartition {
  int destinationPartials;
  int destinationScaleWrite;
  int destinationScaleRead;
  int child1Partials;
  int child1TransitionMatrix;
  int child2Partials;
  int child2TransitionMatrix;
  int partition;              /**< partition index in [0, partitionCount) */
} BglOperationByPartition;

#define BGL_PARTOP_COUNT 8

/** Library version string. */
const char* bglGetVersion(void);

/** Citation blurb, as phylogenetics software conventionally prints. */
const char* bglGetCitation(void);

/**
 * Enumerate hardware resources (CPU plus every accelerator device the
 * framework runtimes expose). The returned pointer is owned by the library
 * and refers to a per-thread snapshot taken at the time of the call: it
 * stays valid (and immutable) until the calling thread's next
 * bglGetResourceList call, and it is safe to call concurrently with
 * plugin registration. Re-call after registering a plugin to observe the
 * refreshed per-resource supportFlags.
 */
BglResourceList* bglGetResourceList(void);

/**
 * Create a likelihood-computation instance.
 *
 * @param tipCount            number of tips (leaf taxa)
 * @param partialsBufferCount partials buffers to allocate (internal nodes
 *                            plus any tips supplied as partials)
 * @param compactBufferCount  compact state buffers (tips supplied as states)
 * @param stateCount          states per character (4, 20, 61, ...)
 * @param patternCount        unique site patterns
 * @param eigenBufferCount    eigendecomposition / frequency / weight slots
 * @param matrixBufferCount   transition probability matrix slots
 * @param categoryCount       rate categories
 * @param scaleBufferCount    scale-factor buffers (0 disables scaling)
 * @param resourceList        preferred resources (indices), or NULL for any
 * @param resourceCount       entries in resourceList
 * @param preferenceFlags     preferred BglFlags
 * @param requirementFlags    required BglFlags
 * @param returnInfo          optional out-param describing the instance
 * @return instance id (>= 0) or a negative BglReturnCode
 */
int bglCreateInstance(int tipCount, int partialsBufferCount, int compactBufferCount,
                      int stateCount, int patternCount, int eigenBufferCount,
                      int matrixBufferCount, int categoryCount, int scaleBufferCount,
                      const int* resourceList, int resourceCount,
                      long preferenceFlags, long requirementFlags,
                      BglInstanceDetails* returnInfo);

/** Destroy an instance and release its resources. */
int bglFinalizeInstance(int instance);

/** Supply tip data as compact integer states (stateCount = gap/ambiguity). */
int bglSetTipStates(int instance, int tipIndex, const int* inStates);

/** Supply tip data as per-state partial likelihoods (pattern-major). */
int bglSetTipPartials(int instance, int tipIndex, const double* inPartials);

/** Set a full partials buffer (patternCount x stateCount x categoryCount). */
int bglSetPartials(int instance, int bufferIndex, const double* inPartials);

/** Read back a partials buffer (category-major, as stored). */
int bglGetPartials(int instance, int bufferIndex, double* outPartials);

/** Set the state frequencies for slot `stateFrequenciesIndex`. */
int bglSetStateFrequencies(int instance, int stateFrequenciesIndex,
                           const double* inStateFrequencies);

/** Set rate-category weights for slot `categoryWeightsIndex`. */
int bglSetCategoryWeights(int instance, int categoryWeightsIndex,
                          const double* inCategoryWeights);

/** Set the (global) rate-category rates. Equivalent to
 * bglSetCategoryRatesWithIndex(instance, 0, inCategoryRates). */
int bglSetCategoryRates(int instance, const double* inCategoryRates);

/**
 * Set the rate-category rates for slot `categoryRatesIndex`. The library
 * holds one rates slot per eigen-buffer slot, so a multi-partition instance
 * can give every partition its own discrete-rate distribution: partition q
 * conventionally keeps its eigendecomposition, frequencies, weights and
 * rates all at slot q. Slot 0 aliases the legacy bglSetCategoryRates
 * buffer. Returns BGL_ERROR_OUT_OF_RANGE for an index outside
 * [0, eigenBufferCount).
 */
int bglSetCategoryRatesWithIndex(int instance, int categoryRatesIndex,
                                 const double* inCategoryRates);

/** Set per-pattern weights (pattern multiplicities). */
int bglSetPatternWeights(int instance, const double* inPatternWeights);

/**
 * Load an eigendecomposition: row-major eigenvectors, inverse eigenvectors,
 * and eigenvalues of the (normalized) rate matrix.
 */
int bglSetEigenDecomposition(int instance, int eigenIndex,
                             const double* inEigenVectors,
                             const double* inInverseEigenVectors,
                             const double* inEigenValues);

/**
 * Compute transition matrices P(t) = E exp(diag(eval) * rate_c * t) E^-1
 * for `count` edges, writing each to the indexed matrix buffer; optional
 * first/second derivative matrices (indices may be NULL).
 */
int bglUpdateTransitionMatrices(int instance, int eigenIndex,
                                const int* probabilityIndices,
                                const int* firstDerivativeIndices,
                                const int* secondDerivativeIndices,
                                const double* edgeLengths, int count);

/**
 * Compute transition matrices for `count` edges where each edge selects its
 * own substitution model: edge i derives from eigendecomposition slot
 * eigenIndices[i] and rate-category slot categoryRatesIndices[i] into
 * matrix buffer probabilityIndices[i]. This is the multi-partition form of
 * bglUpdateTransitionMatrices: one call (and on accelerator instances a
 * near-constant number of kernel launches) re-derives the matrices of
 * every partition, instead of one call per partition. Passing
 * categoryRatesIndices == NULL uses slot 0 (the legacy global rates) for
 * every edge.
 */
int bglUpdateTransitionMatricesWithModels(int instance, const int* eigenIndices,
                                          const int* categoryRatesIndices,
                                          const int* probabilityIndices,
                                          const double* edgeLengths, int count);

/** Set a transition matrix directly (stateCount^2 x categoryCount values). */
int bglSetTransitionMatrix(int instance, int matrixIndex, const double* inMatrix,
                           double paddedValue);

/** Read back a transition matrix. */
int bglGetTransitionMatrix(int instance, int matrixIndex, double* outMatrix);

/**
 * Execute a batch of partial-likelihoods operations (the computational core
 * of the library; Eq. 1 of the paper). Operations are processed in order,
 * except that implementations may execute topology-independent operations
 * concurrently. If `cumulativeScaleIndex` != BGL_OP_NONE, per-operation
 * scale factors are folded into that cumulative buffer.
 */
int bglUpdatePartials(int instance, const BglOperation* operations,
                      int operationCount, int cumulativeScaleIndex);

/**
 * Switch the instance into multi-partition mode (or replace the current
 * partition assignment): the pattern axis is divided into `partitionCount`
 * contiguous ranges by `inPatternPartitions`, an array of patternCount
 * per-pattern partition indices that must be non-decreasing and cover
 * every value in [0, partitionCount) (i.e. partitions are concatenated
 * along the pattern axis). Partition boundaries are derived from the map.
 *
 * After this call, bglUpdatePartialsByPartition evaluates operations over
 * individual partition ranges, bglUpdateTransitionMatricesWithModels
 * derives per-partition matrices, and
 * bglCalculateRootLogLikelihoodsByPartition returns one log likelihood per
 * partition. Partition-blind entry points (bglUpdatePartials,
 * bglCalculateRootLogLikelihoods, ...) still operate on the full pattern
 * axis: they are whole-axis calls onto the partitioned path, bitwise
 * identical to the same calls on a single-partition instance. Passing
 * partitionCount == 1 returns to single-partition behavior.
 *
 * The per-partition arithmetic is range-blocked, so every partition's
 * result is bitwise identical to a single-partition instance holding that
 * partition's patterns alone (see docs/PERFORMANCE.md, "Multi-partition
 * evaluation").
 *
 * Every implementation supports multi-partition mode. Returns
 * BGL_ERROR_OUT_OF_RANGE for a map that is not a non-decreasing cover of
 * [0, partitionCount).
 */
int bglSetPatternPartitions(int instance, int partitionCount,
                            const int* inPatternPartitions);

/**
 * Execute a batch of partition-restricted partials operations (the
 * multi-partition core). Each operation evaluates Eq. 1 over its
 * partition's pattern range only; operations from different partitions
 * with the same destination buffer are independent (disjoint ranges) and
 * batched implementations fuse all partitions' operations for a tree
 * level into the same per-level kernel launches, keeping launch count
 * O(tree depth) instead of O(depth x partitions). If
 * `cumulativeScaleIndex` != BGL_OP_NONE, per-operation scale factors are
 * folded into that cumulative buffer over each operation's range, in
 * operation order within every partition.
 */
int bglUpdatePartialsByPartition(int instance,
                                 const BglOperationByPartition* operations,
                                 int operationCount, int cumulativeScaleIndex);

/** Accumulate the given scale buffers into cumulative buffer `cumulativeScaleIndex`. */
int bglAccumulateScaleFactors(int instance, const int* scaleIndices, int count,
                              int cumulativeScaleIndex);

/** Remove previously accumulated scale buffers from a cumulative buffer. */
int bglRemoveScaleFactors(int instance, const int* scaleIndices, int count,
                          int cumulativeScaleIndex);

/** Reset a cumulative scale buffer to zero. */
int bglResetScaleFactors(int instance, int cumulativeScaleIndex);

/**
 * Integrate root partials against state frequencies and category weights,
 * producing the total log likelihood (sum over patterns of weighted log
 * site likelihoods). Supports `count` independent subsets.
 */
int bglCalculateRootLogLikelihoods(int instance, const int* bufferIndices,
                                   const int* categoryWeightsIndices,
                                   const int* stateFrequenciesIndices,
                                   const int* cumulativeScaleIndices, int count,
                                   double* outSumLogLikelihood);

/**
 * Integrate root partials per partition: entry i integrates partition
 * partitionIndices[i] of buffer bufferIndices[i] against frequency /
 * weight slots stateFrequenciesIndices[i] / categoryWeightsIndices[i]
 * (conventionally the partition's own slots), applying cumulative scale
 * buffer cumulativeScaleIndices[i] (BGL_OP_NONE: none) over the
 * partition's range. outSumLogLikelihoodByPartition[i] receives entry i's
 * log likelihood; *outSumLogLikelihood (ignored when NULL) the serial sum
 * over entries in order. Batched implementations evaluate every entry in
 * one set of launches and return the whole vector in a single readback.
 * Each per-partition value is bitwise identical to
 * bglCalculateRootLogLikelihoods on a single-partition instance holding
 * that partition alone. Returns BGL_ERROR_FLOATING_POINT when any entry
 * is non-finite (all entries are still written).
 */
int bglCalculateRootLogLikelihoodsByPartition(
    int instance, const int* bufferIndices, const int* categoryWeightsIndices,
    const int* stateFrequenciesIndices, const int* cumulativeScaleIndices,
    const int* partitionIndices, int count,
    double* outSumLogLikelihoodByPartition, double* outSumLogLikelihood);

/**
 * Compute the log likelihood across the edge (parent, child), optionally
 * with first/second derivatives with respect to the edge length (used by
 * maximum-likelihood branch-length optimization).
 */
int bglCalculateEdgeLogLikelihoods(
    int instance, const int* parentBufferIndices, const int* childBufferIndices,
    const int* probabilityIndices, const int* firstDerivativeIndices,
    const int* secondDerivativeIndices, const int* categoryWeightsIndices,
    const int* stateFrequenciesIndices, const int* cumulativeScaleIndices,
    int count, double* outSumLogLikelihood, double* outSumFirstDerivative,
    double* outSumSecondDerivative);

/** Per-pattern log likelihoods from the last root/edge calculation. */
int bglGetSiteLogLikelihoods(int instance, double* outLogLikelihoods);

/** Block until any asynchronous computation for the instance completes. */
int bglWaitForComputation(int instance);

/**
 * Restrict a threaded implementation (or an OpenCL CPU device, via device
 * fission) to `threadCount` host threads. Used by the multicore scaling
 * benchmarks; returns BGL_ERROR_UNIMPLEMENTED for implementations without
 * thread control.
 */
int bglSetThreadCount(int instance, int threadCount);

/** Execution record of an instance. On accelerator instances with a
 * simulated device profile `modeledSeconds` comes from the calibrated
 * roofline model; on CPU instances (and the accelerator host device) it
 * equals measured wall time spent inside API-level operations. */
typedef struct BglTimeline {
  double modeledSeconds;
  double measuredSeconds;
  unsigned long long kernelLaunches;
  unsigned long long bytesCopied;
} BglTimeline;

/**
 * Read the accumulated timeline of an instance.
 *
 * Contract: an instance only returns BGL_SUCCESS here if it has actually
 * been recording. Accelerator instances always record (the device runtime
 * keeps a timeline). CPU instances record span timing only after
 * bglResetTimeline (or trace/stats output) has enabled it; calling
 * bglGetTimeline before that returns BGL_ERROR_UNIMPLEMENTED rather than
 * silently succeeding with zeros.
 */
int bglGetTimeline(int instance, BglTimeline* outTimeline);

/**
 * Reset the accumulated timeline of an instance. On CPU instances this
 * also enables span timing, so `bglResetTimeline(i) == BGL_SUCCESS`
 * followed by computation and bglGetTimeline yields measured seconds on
 * every implementation family.
 */
int bglResetTimeline(int instance);

/**
 * Snapshot of an instance's always-on operation counters plus the time
 * (in seconds) spent inside each API-level entry point. The seconds
 * fields are zero until span timing is enabled (bglResetTimeline,
 * bglSetTraceFile / bglSetStatsFile, or the BGL_TRACE / BGL_STATS
 * environment variables); the counters are always live.
 */
typedef struct BglStatistics {
  unsigned long long partialsOperations;  /**< partials operations executed */
  unsigned long long transitionMatrices;  /**< transition matrices computed */
  unsigned long long rootEvaluations;     /**< root-likelihood subsets */
  unsigned long long edgeEvaluations;     /**< edge-likelihood subsets */
  unsigned long long rescaleEvents;       /**< per-operation rescale passes */
  unsigned long long scaleAccumulations;  /**< scale buffers accumulated/removed */
  unsigned long long kernelLaunches;      /**< device kernel launches */
  unsigned long long bytesCopiedIn;       /**< bytes staged into the instance */
  unsigned long long bytesCopiedOut;      /**< bytes read back out */
  double updatePartialsSeconds;
  double updateTransitionMatricesSeconds;
  double rootLogLikelihoodsSeconds;
  double edgeLogLikelihoodsSeconds;
  unsigned long long streamedLaunches;    /**< launches enqueued on an async
                                               command stream (subset of
                                               kernelLaunches) */
} BglStatistics;

/** Read the instance's operation counters and per-category timings. */
int bglGetStatistics(int instance, BglStatistics* outStatistics);

/**
 * Zero the instance's counters, timings, gauges and retained trace events.
 * The process-wide journal (bglGetJournal) is deliberately NOT cleared:
 * reset re-baselines metrics, but the flight recorder must still show what
 * happened before the reset.
 */
int bglResetStatistics(int instance);

/**
 * Arrange for a Chrome trace-event JSON timeline (loadable in
 * about:tracing or Perfetto) to be written to `path` when the instance is
 * finalized. Enables span timing and event retention immediately. Passing
 * NULL or "" cancels. Equivalent to setting BGL_TRACE in the environment
 * before bglCreateInstance; if several live instances resolve to the same
 * path, later instances write to `path` + ".i<instance>".
 */
int bglSetTraceFile(int instance, const char* path);

/**
 * Arrange for a flat stats-JSON summary (counters plus per-category
 * duration histograms) to be written to `path` at finalize. Enables span
 * timing immediately. Passing NULL or "" cancels. Equivalent to setting
 * BGL_STATS in the environment before bglCreateInstance.
 */
int bglSetStatsFile(int instance, const char* path);

/**
 * Set the number of site patterns computed per work-group for x86-style
 * accelerator kernels (the tuning dimension of Table V in the paper).
 */
int bglSetWorkGroupSize(int instance, int patternsPerWorkGroup);

/** One resource's calibrated (or model-estimated) throughput. */
typedef struct BglBenchmarkedResource {
  int resourceNumber;  /**< index into the resource list */
  double performance;  /**< effective GFLOPS on the calibration workload */
  double seconds;      /**< seconds per calibration evaluation */
  int measured;        /**< 1 = benchmark executed, 0 = perf-model estimate */
} BglBenchmarkedResource;

/**
 * Benchmark hardware resources on a short synthetic partials+root workload
 * (the beagleBenchmarkResources capability of BEAGLE 4.1) and cache the
 * resulting throughput estimates for later scheduling decisions.
 *
 * @param resourceList     resources to benchmark, or NULL for all
 * @param resourceCount    entries in resourceList (ignored when NULL)
 * @param stateCount       workload states per character (<= 0: default 4)
 * @param patternCount     workload site patterns (<= 0: default 1024)
 * @param categoryCount    workload rate categories (<= 0: default 4)
 * @param preferenceFlags  preferred BglFlags for the benchmark instances
 * @param requirementFlags required BglFlags; include
 *                         BGL_FLAG_LOADBALANCE_MODEL to skip execution and
 *                         return perf-model estimates instead
 * @param outBenchmarks    caller-allocated array with room for every
 *                         requested resource
 * @param outCount         number of entries written
 *
 * Resources that no implementation can serve under the given flags are
 * filled with perf-model estimates (measured = 0) rather than omitted.
 * The calibration dataset is deterministic; set BGL_SCHED_SEED to change
 * its seed.
 */
int bglBenchmarkResources(const int* resourceList, int resourceCount,
                          int stateCount, int patternCount, int categoryCount,
                          long preferenceFlags, long requirementFlags,
                          BglBenchmarkedResource* outBenchmarks, int* outCount);

/**
 * Best throughput estimate (effective GFLOPS) known for `resource`:
 * the cached benchmark result when one exists, else a perf-model
 * estimate. Never runs a benchmark itself.
 */
int bglGetResourcePerformance(int resource, double* outPerformance);

/**
 * Human-readable detail for the most recent failed library call on the
 * calling thread, or "" when the last call on this thread succeeded (or
 * carried no detail). The returned pointer is owned by the library and
 * valid until the thread's next library call. Never returns NULL.
 *
 * Populated whenever a layer below the C API can attach detail — device
 * runtime bounds checks, injected faults, instance-creation failures —
 * so a caller seeing BGL_ERROR_HARDWARE or BGL_ERROR_OUT_OF_RANGE can
 * report *which* transfer or index was at fault.
 */
const char* bglGetLastErrorMessage(void);

/**
 * Arm (or disarm) the deterministic fault injector of the simulated
 * device runtimes. `spec` is a comma-separated list of directives
 * `[framework:]kind:value` with kind one of:
 *   launch:N  — the Nth kernel launch after this call fails (one-shot)
 *   memcpy:N  — the Nth device transfer fails (one-shot)
 *   alloc:B   — device allocations beyond a cumulative budget of B bytes
 *               fail (persistent)
 * and framework optionally "cuda" or "opencl" to restrict the directive
 * to one runtime, or "host" for the host-allocation site consulted by the
 * serving layer's instance pool: `host:alloc:N` makes the Nth pooled
 * instance creation (including grow-on-demand reinits) after this call
 * fail with BGL_ERROR_OUT_OF_MEMORY (one-shot, event-counted rather than
 * byte-budgeted; `host` supports only `alloc`). Fired faults surface as
 * BGL_ERROR_HARDWARE (or BGL_ERROR_OUT_OF_MEMORY for the allocation
 * sites) with detail in bglGetLastErrorMessage. Passing NULL or ""
 * disarms. Equivalent to setting BGL_FAULT in the environment before the
 * first library call.
 *
 * Returns BGL_ERROR_OUT_OF_RANGE (with detail in the last-error
 * message) on a malformed spec, leaving the previous spec armed.
 */
int bglSetFaultSpec(const char* spec);

/**
 * What a journal record describes. The journal is the process-wide flight
 * recorder: a fixed-capacity ring of structured operational events (errors,
 * injected faults, stream error latches, shard quarantines, failover steps,
 * rebalances, calibration fallbacks) that is always on and survives
 * bglResetStatistics.
 */
typedef enum BglJournalKind {
  BGL_JOURNAL_ERROR = 1,                /**< error surfaced through the C API */
  BGL_JOURNAL_FAULT_INJECTED = 2,       /**< fault-injector directive fired */
  BGL_JOURNAL_STREAM_ERROR = 3,         /**< async command stream latched an error */
  BGL_JOURNAL_SHARD_QUARANTINE = 4,     /**< split-likelihood shard quarantined */
  BGL_JOURNAL_REAPPORTION = 5,          /**< surviving shards re-apportioned */
  BGL_JOURNAL_RETRY = 6,                /**< shard set rebuilt, evaluation retried */
  BGL_JOURNAL_CPU_FALLBACK = 7,         /**< last-resort host-CPU fallback engaged */
  BGL_JOURNAL_REBALANCE = 8,            /**< adaptive load balancer re-split */
  BGL_JOURNAL_CALIBRATION_FALLBACK = 9, /**< calibration errored; model seed used */
  BGL_JOURNAL_ADMISSION_REJECT = 10,    /**< serving layer refused a session */
  BGL_JOURNAL_POOL_EVICT = 11,          /**< idle pooled instance finalized */
  BGL_JOURNAL_POOL_REINIT = 12          /**< pooled instance re-created larger
                                             (grow-on-demand reinit) */
} BglJournalKind;

/** One journal record. Ids that do not apply are -1; `message` is always
 * NUL-terminated. */
typedef struct BglJournalRecord {
  unsigned long long sequence;  /**< global append index (monotone) */
  unsigned long long timeNs;    /**< monotonic ns since the journal started */
  int kind;                     /**< a BglJournalKind value */
  int code;                     /**< BglReturnCode when error-like, else 0 */
  int instance;                 /**< instance id, -1 unknown / process-wide */
  int resource;                 /**< resource id, -1 unknown */
  int shard;                    /**< split-likelihood shard index, -1 n/a */
  char message[112];            /**< human-readable detail (truncated) */
} BglJournalRecord;

/**
 * Copy the retained journal records, oldest first, into `outRecords`
 * (caller-allocated, room for `capacity` entries). `*outCount` receives the
 * number written. Pass outRecords == NULL (or capacity 0) to query the
 * retained count alone. Lock-free with respect to concurrent appends:
 * records a writer is mid-overwrite on are skipped, never torn.
 */
int bglGetJournal(BglJournalRecord* outRecords, int capacity, int* outCount);

/**
 * Aggregate statistics over every instance the process has created: live
 * instances contribute their current counters, finalized instances the
 * totals they held at finalize. `pendingDepth` sums the async command-stream
 * queue depth gauges of live instances; `pendingDepthMax` is the process
 * high-water mark.
 */
typedef struct BglProcessStatistics {
  int liveInstances;                    /**< currently registered instances */
  unsigned long long instancesCreated;  /**< ever created in this process */
  unsigned long long instancesRetired;  /**< finalized so far */
  BglStatistics totals;                 /**< summed counters and timings */
  unsigned long long pendingDepth;      /**< current queued+in-flight launches */
  unsigned long long pendingDepthMax;   /**< high-water pending depth */
  unsigned long long journalRecords;    /**< journal records ever appended */
} BglProcessStatistics;

/** Read the process-wide statistics aggregate. */
int bglGetProcessStatistics(BglProcessStatistics* outStatistics);

/**
 * Start (or retarget) the background live-metrics service: append one
 * JSON-lines snapshot to `path` every `periodMs` milliseconds (<= 0: 500)
 * — cumulative process counters, per-period deltas, p50/p95/p99 per span
 * category, queue-depth gauges, and journal records new since the previous
 * line — and periodically refresh per-instance bglSetTraceFile /
 * bglSetStatsFile outputs so the last snapshot survives an abnormal
 * teardown. A final line is written when the service stops. Passing NULL
 * or "" stops the service. Equivalent to setting BGL_METRICS (path) and
 * BGL_METRICS_MS (period) in the environment before the first
 * bglCreateInstance. Enables span timing on all live and future instances.
 */
int bglSetMetricsFile(const char* path, int periodMs);

/* ------------------------------------------------------------------ */
/* Likelihood-as-a-service: multi-tenant instance pool and sessions.  */
/*                                                                    */
/* A long-lived server process multiplexes many concurrent analyses   */
/* over a shared pool of recycled instances instead of paying full    */
/* create/calibrate/finalize per request. Sessions are admission-     */
/* controlled (per-tenant quotas, queue-depth backpressure, load      */
/* shedding driven by the scheduler's calibration data) and support   */
/* online tree updates: adding a taxon or changing a branch length    */
/* recomputes only the dirtied path to the root. See docs/SERVING.md. */
/* ------------------------------------------------------------------ */

/** Serving-layer limits. Zero/negative fields select the defaults. */
typedef struct BglPoolConfig {
  int maxSessions;            /**< concurrent sessions, all tenants (default 64) */
  int maxSessionsPerTenant;   /**< concurrent sessions per tenant (default 8) */
  long long maxPendingDepth;  /**< reject opens while the process async queue
                                   depth exceeds this (default 4096) */
  double maxEstimatedLoad;    /**< reject opens once the summed calibrated
                                   seconds-per-evaluation of live sessions
                                   exceeds this (default: unlimited) */
  int idleEvictMs;            /**< free pooled instances idle at least this
                                   long are finalized on the next pool sweep
                                   (default 30000; 0 keeps the default) */
} BglPoolConfig;

/**
 * Configure the process-wide serving layer. May be called at any time;
 * new limits apply to subsequent admissions and sweeps (already-admitted
 * sessions are never revoked). Passing NULL restores the defaults.
 */
int bglPoolConfigure(const BglPoolConfig* config);

/** Serving-layer occupancy gauges and admission counters. */
typedef struct BglPoolStatistics {
  int liveSessions;                      /**< sessions currently open */
  int pooledInstances;                   /**< instances the pool owns (leased + free) */
  int freeInstances;                     /**< instances on the free list */
  unsigned long long admitted;           /**< session opens admitted */
  unsigned long long rejectedQuota;      /**< opens rejected on a tenant/global quota */
  unsigned long long rejectedBackpressure; /**< opens rejected on queue depth */
  unsigned long long rejectedLoad;       /**< opens shed on calibrated load */
  unsigned long long instancesCreated;   /**< pool instances ever created */
  unsigned long long instancesRecycled;  /**< acquisitions served from the free list */
  unsigned long long reinitGrows;        /**< grow-on-demand reinits applied */
  unsigned long long evictions;          /**< idle instances finalized */
  double estimatedLoadSeconds;           /**< summed calibrated seconds/evaluation
                                              of live sessions */
} BglPoolStatistics;

/** Read the serving layer's statistics (zeros before first use). */
int bglPoolGetStatistics(BglPoolStatistics* outStatistics);

/**
 * Sweep the free list now, finalizing instances idle for at least
 * `idleMs` milliseconds (0: every free instance). Returns the number
 * evicted. Sweeps also run opportunistically on acquire/release.
 */
int bglPoolTrim(int idleMs);

/**
 * Open an admission-controlled analysis session for `tenant` (NULL or ""
 * reads as the anonymous tenant). The session leases a pooled instance
 * matched on (resource, shape class) — recycled when one is free, created
 * on demand otherwise — and releases it for reuse at bglSessionClose.
 *
 * @return session id (>= 0), BGL_ERROR_REJECTED when admission control
 * refuses (detail in bglGetLastErrorMessage), or another BglReturnCode.
 */
int bglSessionOpen(const char* tenant, int stateCount, int patternCount,
                   int categoryCount, int resource, long preferenceFlags,
                   long requirementFlags);

/** Close a session and return its instance to the pool's free list. */
int bglSessionClose(int session);

/**
 * Supply the session's substitution model: row-major eigenvectors,
 * inverse eigenvectors and eigenvalues, state frequencies, category
 * weights and rates, and per-pattern weights (NULL: unit weights). May be
 * called again to swap models; doing so dirties the whole tree.
 */
int bglSessionSetModel(int session, const double* inEigenVectors,
                       const double* inInverseEigenVectors,
                       const double* inEigenValues, const double* inFrequencies,
                       const double* inCategoryWeights,
                       const double* inCategoryRates,
                       const double* inPatternWeights);

/**
 * Online update: add one taxon (compact states, patternCount entries) to
 * the live tree. The first taxon creates a single-tip tree (attachNode
 * ignored); the second joins both tips under a new root. Later taxa split
 * the edge above `attachNode`: the attach node keeps `distalLength` below
 * the new internal node and the new tip hangs at `pendantLength`
 * (attaching at the root instead grows a new root above it, with the old
 * root at `distalLength`). Only the path from the
 * attachment point to the root is marked dirty, so the next
 * bglSessionLogLikelihood re-enqueues O(depth) operations rather than the
 * whole tree. Outgrowing the leased instance triggers a grow-on-demand
 * reinit from the pool (never a "ran out of slots" failure).
 *
 * @return the new tip's node id (>= 0) or a negative BglReturnCode.
 */
int bglSessionAddTaxon(int session, const int* inStates, int attachNode,
                       double distalLength, double pendantLength);

/** Online update: set the branch length above `node` (dirties its path). */
int bglSessionSetBranch(int session, int node, double length);

/**
 * Log likelihood of the live tree, recomputing only dirtied transition
 * matrices and the dirtied partials paths (bit-identical to a full
 * recompute). Needs >= 2 taxa and a model.
 */
int bglSessionLogLikelihood(int session, double* outLogLikelihood);

/** Reference path: mark everything dirty and recompute from the tips. */
int bglSessionFullLogLikelihood(int session, double* outLogLikelihood);

/** Shape and placement of a live session. */
typedef struct BglSessionDetails {
  int instance;        /**< leased instance id (valid until close/reinit) */
  int taxa;            /**< taxa in the live tree */
  int nodes;           /**< node ids in [0, nodes) are addressable */
  int root;            /**< current root node id (-1: empty tree) */
  int tipCapacity;     /**< taxa the leased instance can hold before reinit */
  const char* implName;/**< implementation serving the lease */
} BglSessionDetails;

/** Describe a live session (implName owned by the library, valid until
 * the session's next library call). */
int bglSessionGetDetails(int session, BglSessionDetails* outDetails);

#ifdef __cplusplus
}
#endif

#endif /* BGL_H */
