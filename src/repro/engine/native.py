"""Optional C kernel for the compiled engine.

The packed transition tables built by :mod:`repro.engine.compiler` are
self-contained: applying one interaction is two array reads, one table read
and two writes.  That inner loop is branch-light and memory-resident, so on
machines with a system C compiler we compile one kernel source once, cache
the shared object under ``src/repro/engine/_build/`` (named by a digest of
the source and the compiler flags) and drive it through :mod:`ctypes`.
This removes the interpreter from the hot path entirely (roughly two orders
of magnitude over the reference interpreter) while executing the *same*
table entries as the NumPy and scalar backends.

Everything degrades gracefully: no compiler, a failed build, or
``REPRO_DISABLE_NATIVE=1`` simply means every ``get_*`` accessor returns
``None`` and callers fall back to the NumPy/scalar paths.  The kernel stops
at the first table miss and returns how far it got, so lazy pair discovery
(and table growth) stays in Python.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess

#: The kernel source: protocol stepping, shard runs and the single-source
#: epidemic block fed pre-drawn pair indices from Python, plus the epoch
#: runners whose seeded pair streams live *inside* the kernel.  The stream
#: code is a bit-exact reimplementation of the exact NumPy stack this
#: package draws from — ``SeedSequence`` entropy pooling, the PCG64
#: (XSL-RR 128/64) bit generator including its buffered 32-bit half-word,
#: and ``Generator.integers``'s Lemire bounded sampling — plus the
#: SplitMix64 word folding of :mod:`repro.core.seeds` and the scheduler
#: dialect of :class:`repro.runtime.source.InteractionSource` (refills of
#: ``max(batch, minimum)`` edge draws followed by orientation draws).
#: Every stream produced here is bit-identical to the NumPy draws; the
#: differential contract lives in ``tests/test_kernel_rng.py`` and the
#: golden fixtures.  Replicas are fully independent, so the optional
#: pthread fan-out over the replica axis cannot change results for any
#: thread count.
_KERNEL_SOURCE = r"""
#include <stdint.h>
#include <string.h>
#include <pthread.h>

/* Applies interactions [0, nsteps) sequentially against the packed table.
 *
 * Packed entry layout (see repro/engine/compiler.py):
 *   entry = ((na * k + nb) << 4) | ((dl + 2) << 1) | chg,  -1 == missing.
 *
 * Returns the number of interactions applied; a return value < nsteps
 * means entry (iu[ret], iv[ret]) is missing and must be filled by the
 * caller before resuming at offset ret.
 */
int64_t repro_run_block(int64_t *codes,
                        const int64_t *iu,
                        const int64_t *iv,
                        int64_t nsteps,
                        const int32_t *dpack,
                        int64_t k,
                        int32_t kshift,
                        uint8_t *seen,
                        int64_t step0,
                        int64_t *last_change_io,
                        int64_t *leaders_io)
{
    const int64_t kmask = k - 1;
    int64_t last = *last_change_io;
    int64_t leaders = *leaders_io;
    int64_t i;
    for (i = 0; i < nsteps; i++) {
        int64_t u = iu[i];
        int64_t v = iv[i];
        int64_t a = codes[u];
        int64_t b = codes[v];
        int32_t pk = dpack[a * k + b];
        int64_t val, na, nb;
        if (pk < 0)
            break;
        val = (int64_t)(pk >> 4);
        na = val >> kshift;
        nb = val & kmask;
        codes[u] = na;
        codes[v] = nb;
        seen[na] = 1;
        seen[nb] = 1;
        if (pk & 1)
            last = step0 + i + 1;
        leaders += ((pk >> 1) & 7) - 2;
    }
    *last_change_io = last;
    *leaders_io = leaders;
    return i;
}

/* A shard-local run: repro_run_block against one shard's contiguous code
 * block, with an explicit per-draw global step number instead of the
 * step0 + i + 1 arithmetic.
 *
 * The sharded executor reorders commuting draws (all of one shard's
 * local interactions between two boundary events run back to back), so
 * a run's draws are not consecutive in the global stream; steps[i] is
 * draw i's true global step, and last-change bookkeeping records it
 * directly.  Callers pass *last_change_io = 0 and fold the result in
 * with max() — within a run steps[] is increasing, so the kernel's
 * final value is the run's last output change (or 0).
 *
 * Returns the number of interactions applied; a return value < nsteps
 * means entry (iu[ret], iv[ret]) is missing and must be filled by the
 * caller before resuming at offset ret (the miss-resume discipline).
 */
int64_t repro_run_shard_block(int64_t *codes,
                              const int64_t *iu,
                              const int64_t *iv,
                              const int64_t *steps,
                              int64_t nsteps,
                              const int32_t *dpack,
                              int64_t k,
                              int32_t kshift,
                              uint8_t *seen,
                              int64_t *last_change_io,
                              int64_t *leaders_io)
{
    const int64_t kmask = k - 1;
    int64_t last = *last_change_io;
    int64_t leaders = *leaders_io;
    int64_t i;
    for (i = 0; i < nsteps; i++) {
        int64_t u = iu[i];
        int64_t v = iv[i];
        int64_t a = codes[u];
        int64_t b = codes[v];
        int32_t pk = dpack[a * k + b];
        int64_t val, na, nb;
        if (pk < 0)
            break;
        val = (int64_t)(pk >> 4);
        na = val >> kshift;
        nb = val & kmask;
        codes[u] = na;
        codes[v] = nb;
        seen[na] = 1;
        seen[nb] = 1;
        if (pk & 1)
            last = steps[i];
        leaders += ((pk >> 1) & 7) - 2;
    }
    *last_change_io = last;
    *leaders_io = leaders;
    return i;
}

/* One whole routed chunk of the sharded executor, global draw order.
 *
 * The in-process sharded path needs no run regrouping at all: node
 * state is one global code array, so every draw — shard-local or
 * boundary — applies in exact draw order with global endpoint indices,
 * and the chunk is a single kernel call.  The only thing the executor
 * still owes the shard fabric is the exchange accounting for the
 * boundary events, so for each chunk position listed in boundary_pos
 * (ascending) the kernel records into applied[] whether that draw's
 * transition was non-null (na != a || nb != b; the packed tables encode
 * a null transition as the identity with zero deltas) — the caller
 * bumps the posted/delivered matrices from that flag vector in one
 * vectorised pass.
 *
 * start > 0 resumes mid-chunk after a miss-resume table fill; steps are
 * step0 + i + 1 (the chunk is contiguous in the global stream).
 * Returns the chunk position of the first missing entry, or nsteps.
 */
int64_t repro_run_sharded_chunk(int64_t *codes,
                                const int64_t *iu,
                                const int64_t *iv,
                                int64_t start,
                                int64_t nsteps,
                                int64_t step0,
                                const int64_t *boundary_pos,
                                int64_t n_boundary,
                                uint8_t *applied,
                                const int32_t *dpack,
                                int64_t k,
                                int32_t kshift,
                                uint8_t *seen,
                                int64_t *last_change_io,
                                int64_t *leaders_io)
{
    const int64_t kmask = k - 1;
    int64_t last = *last_change_io;
    int64_t leaders = *leaders_io;
    int64_t j = 0;
    int64_t i;
    while (j < n_boundary && boundary_pos[j] < start)
        j++;
    for (i = start; i < nsteps; i++) {
        int64_t u = iu[i];
        int64_t v = iv[i];
        int64_t a = codes[u];
        int64_t b = codes[v];
        int32_t pk = dpack[a * k + b];
        int64_t val, na, nb;
        if (pk < 0)
            break;
        val = (int64_t)(pk >> 4);
        na = val >> kshift;
        nb = val & kmask;
        codes[u] = na;
        codes[v] = nb;
        seen[na] = 1;
        seen[nb] = 1;
        if (pk & 1)
            last = step0 + i + 1;
        leaders += ((pk >> 1) & 7) - 2;
        if (j < n_boundary && boundary_pos[j] == i) {
            applied[j] = (na != a || nb != b);
            j++;
        }
    }
    *last_change_io = last;
    *leaders_io = leaders;
    return i;
}

/* One block of the single-source epidemic (broadcast-time estimator).
 *
 * Spreads the informed flag across interactions until either the block is
 * exhausted or all n nodes are informed.  Returns the number of
 * interactions consumed; *count_io holds the updated informed count.
 */
int64_t repro_broadcast_block(uint8_t *informed,
                              const int64_t *iu,
                              const int64_t *iv,
                              int64_t nsteps,
                              int64_t n,
                              int64_t *count_io)
{
    int64_t count = *count_io;
    int64_t i;
    for (i = 0; i < nsteps; i++) {
        int64_t u = iu[i];
        int64_t v = iv[i];
        uint8_t a = informed[u];
        uint8_t b = informed[v];
        if (a != b) {
            informed[u] = 1;
            informed[v] = 1;
            count++;
            if (count == n) {
                i++;
                break;
            }
        }
    }
    *count_io = count;
    return i;
}

typedef unsigned __int128 repro_u128;

#define REPRO_RNG_WORDS 8
#define REPRO_SRC_WORDS 3
#define REPRO_MAX_THREADS 64

/* Epoch-runner row statuses (mirrored in repro.runtime.execute). */
#define REPRO_EPOCH_BUDGET 0
#define REPRO_EPOCH_BOUNDARY 1
#define REPRO_EPOCH_MISS 2

/* ---- SplitMix64 (the finalizer behind repro.core.seeds) ---------- */

uint64_t repro_splitmix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/* derive_seed word folding: words[0] is the (pre-folded) base, the rest
 * are tag/index words already reduced to uint64 by the Python side's
 * word_to_int.  Must stay aligned with repro.core.seeds.derive_seed. */
uint64_t repro_derive_seed(const uint64_t *words, int64_t count)
{
    uint64_t state = repro_splitmix64(words[0]);
    int64_t i;
    for (i = 1; i < count; i++)
        state = repro_splitmix64(state ^ words[i]);
    return state & 0x7FFFFFFFFFFFFFFFULL;
}

/* ---- numpy SeedSequence (pool 4, entropy <= 2 uint32 words) ------ */

static void repro_seedseq_state(uint64_t seed, uint64_t out[4])
{
    uint32_t pool[4];
    uint32_t entropy[2];
    int nent = (seed >> 32) ? 2 : 1;
    uint32_t hash_const = 0x43b0d7e5u;
    int i, src, dst, w;
    entropy[0] = (uint32_t)seed;
    entropy[1] = (uint32_t)(seed >> 32);
    for (i = 0; i < 4; i++) {
        uint32_t value = (i < nent) ? entropy[i] : 0u;
        value ^= hash_const;
        hash_const *= 0x931e8875u;
        value *= hash_const;
        value ^= value >> 16;
        pool[i] = value;
    }
    for (src = 0; src < 4; src++) {
        for (dst = 0; dst < 4; dst++) {
            uint32_t value, result;
            if (src == dst)
                continue;
            value = pool[src];
            value ^= hash_const;
            hash_const *= 0x931e8875u;
            value *= hash_const;
            value ^= value >> 16;
            result = pool[dst] * 0xca01f9ddu - value * 0x4973f715u;
            result ^= result >> 16;
            pool[dst] = result;
        }
    }
    hash_const = 0x8b51f9ddu;
    src = 0;
    for (w = 0; w < 4; w++) {
        uint32_t half[2];
        for (i = 0; i < 2; i++) {
            uint32_t value = pool[src % 4];
            src++;
            value ^= hash_const;
            hash_const *= 0x58f38dedu;
            value *= hash_const;
            value ^= value >> 16;
            half[i] = value;
        }
        out[w] = (uint64_t)half[0] | ((uint64_t)half[1] << 32);
    }
}

/* ---- PCG64 (numpy's pcg_setseq_128_xsl_rr_64) -------------------- */

typedef struct {
    repro_u128 state;
    repro_u128 inc;
    uint32_t buf;
    uint32_t has;
} repro_pcg64;

#define REPRO_PCG_MULT \
    (((repro_u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL)

/* State rows are REPRO_RNG_WORDS uint64 each:
 * [state_hi, state_lo, inc_hi, inc_lo, has_uint32, uinteger, 0, 0] —
 * exactly the fields of numpy's PCG64 .state dict, so Python can export
 * a live Generator into a row and import it back bit for bit. */
static void repro_pcg64_load(const uint64_t *w, repro_pcg64 *p)
{
    p->state = ((repro_u128)w[0] << 64) | w[1];
    p->inc = ((repro_u128)w[2] << 64) | w[3];
    p->has = (uint32_t)w[4];
    p->buf = (uint32_t)w[5];
}

static void repro_pcg64_store(const repro_pcg64 *p, uint64_t *w)
{
    w[0] = (uint64_t)(p->state >> 64);
    w[1] = (uint64_t)p->state;
    w[2] = (uint64_t)(p->inc >> 64);
    w[3] = (uint64_t)p->inc;
    w[4] = p->has;
    w[5] = p->buf;
}

static uint64_t repro_pcg64_next64(repro_pcg64 *p)
{
    uint64_t hi, lo, x;
    unsigned rot;
    p->state = p->state * REPRO_PCG_MULT + p->inc;
    hi = (uint64_t)(p->state >> 64);
    lo = (uint64_t)p->state;
    x = hi ^ lo;
    rot = (unsigned)(p->state >> 122);
    return (x >> rot) | (x << ((64 - rot) & 63));
}

static uint32_t repro_pcg64_next32(repro_pcg64 *p)
{
    uint64_t v;
    if (p->has) {
        p->has = 0;
        return p->buf;
    }
    v = repro_pcg64_next64(p);
    p->buf = (uint32_t)(v >> 32);
    p->has = 1;
    return (uint32_t)v;
}

/* Seed one PCG64 per replica through SeedSequence(seed).generate_state(4):
 * words [0,1] form the 128-bit initial state, [2,3] the stream. */
void repro_pcg64_init(const uint64_t *seeds, int64_t nrep, uint64_t *rng_state)
{
    int64_t r;
    for (r = 0; r < nrep; r++) {
        uint64_t w[4];
        repro_pcg64 p;
        repro_u128 initstate, initseq;
        repro_seedseq_state(seeds[r], w);
        initstate = ((repro_u128)w[0] << 64) | w[1];
        initseq = ((repro_u128)w[2] << 64) | w[3];
        p.inc = (initseq << 1) | 1;
        p.state = p.inc; /* = 0 * MULT + inc: the first srandom step */
        p.state += initstate;
        p.state = p.state * REPRO_PCG_MULT + p.inc;
        p.has = 0;
        p.buf = 0;
        repro_pcg64_store(&p, rng_state + r * REPRO_RNG_WORDS);
    }
}

/* Raw 64-bit outputs (differential tests against PCG64.random_raw). */
void repro_pcg64_raw(uint64_t *rng_state, int64_t count, uint64_t *out)
{
    repro_pcg64 p;
    int64_t i;
    repro_pcg64_load(rng_state, &p);
    for (i = 0; i < count; i++)
        out[i] = repro_pcg64_next64(&p);
    repro_pcg64_store(&p, rng_state);
}

/* Generator.integers(0, rng + 1) — Lemire's bounded sampling with the
 * buffered 32-bit fast path, exactly as in numpy's distributions.c. */
static uint64_t repro_bounded64(repro_pcg64 *p, uint64_t rng)
{
    if (rng == 0)
        return 0;
    if (rng <= 0xFFFFFFFFULL) {
        uint32_t rng_excl, leftover;
        uint64_t m;
        if (rng == 0xFFFFFFFFULL)
            return repro_pcg64_next32(p);
        rng_excl = (uint32_t)rng + 1;
        m = (uint64_t)repro_pcg64_next32(p) * rng_excl;
        leftover = (uint32_t)m;
        if (leftover < rng_excl) {
            uint32_t threshold = ((uint32_t)(0xFFFFFFFFu - (uint32_t)rng)) % rng_excl;
            while (leftover < threshold) {
                m = (uint64_t)repro_pcg64_next32(p) * rng_excl;
                leftover = (uint32_t)m;
            }
        }
        return m >> 32;
    }
    if (rng == 0xFFFFFFFFFFFFFFFFULL)
        return repro_pcg64_next64(p);
    {
        uint64_t rng_excl = rng + 1;
        repro_u128 m = (repro_u128)repro_pcg64_next64(p) * rng_excl;
        uint64_t leftover = (uint64_t)m;
        if (leftover < rng_excl) {
            uint64_t threshold = (0xFFFFFFFFFFFFFFFFULL - rng) % rng_excl;
            while (leftover < threshold) {
                m = (repro_u128)repro_pcg64_next64(p) * rng_excl;
                leftover = (uint64_t)m;
            }
        }
        return (uint64_t)(m >> 64);
    }
}

/* integers(0, bound, size=count) into int64 (the directed dialect). */
void repro_bounded_fill(uint64_t *rng_state, uint64_t bound, int64_t count,
                        int64_t *out)
{
    repro_pcg64 p;
    int64_t i;
    uint64_t rng = bound - 1;
    repro_pcg64_load(rng_state, &p);
    for (i = 0; i < count; i++)
        out[i] = (int64_t)repro_bounded64(&p, rng);
    repro_pcg64_store(&p, rng_state);
}

/* ---- The scheduler dialect (InteractionSource._refill in C) ------ */

/* One refill: size = max(batch, minimum); all edge draws first, then all
 * orientation draws (the two-call order is part of the seeded-stream
 * definition); encoded as index = edge + (1 - orientation) * m. */
static int64_t repro_source_refill(repro_pcg64 *p, int64_t *buffer,
                                   int64_t batch, int64_t minimum, int64_t m)
{
    int64_t size = batch > minimum ? batch : minimum;
    uint64_t erng = (uint64_t)m - 1;
    int64_t i;
    for (i = 0; i < size; i++)
        buffer[i] = (int64_t)repro_bounded64(p, erng);
    for (i = 0; i < size; i++) {
        int64_t orient = (int64_t)repro_bounded64(p, 1);
        buffer[i] += (1 - orient) * m;
    }
    return size;
}

/* next_pair_indices(count) in C.  src_state is [cursor, fill, position];
 * buffer must hold max(batch, count) entries.  Bit-identical to the
 * Python InteractionSource on a static topology for any chunking. */
void repro_source_fill(uint64_t *rng_state, int64_t *src_state,
                       int64_t *buffer, int64_t m, int64_t batch,
                       int64_t count, int64_t *out)
{
    repro_pcg64 p;
    int64_t cursor = src_state[0];
    int64_t fill = src_state[1];
    int64_t position = src_state[2];
    int64_t filled = 0;
    repro_pcg64_load(rng_state, &p);
    while (filled < count) {
        int64_t available = fill - cursor;
        int64_t take;
        if (available == 0) {
            fill = repro_source_refill(&p, buffer, batch, count - filled, m);
            cursor = 0;
            available = fill;
        }
        take = available < count - filled ? available : count - filled;
        memcpy(out + filled, buffer + cursor, (size_t)take * sizeof(int64_t));
        cursor += take;
        filled += take;
        position += take;
    }
    repro_pcg64_store(&p, rng_state);
    src_state[0] = cursor;
    src_state[1] = fill;
    src_state[2] = position;
}

/* ---- The epoch runner -------------------------------------------- */

/* Advance one replica until its next stop event: a certificate-cadence
 * boundary that needs a Python certificate check (BOUNDARY), a missing
 * transition-table entry (MISS; buffer[cursor] holds the undecoded pair
 * index, nothing consumed), or the step budget (BUDGET).  With precheck
 * set, boundaries where the kernel-maintained leader count is != 1 are
 * skipped — the certificate cannot hold there — so whole stretches of
 * the measurement run in one call.  Stream consumption (refill sizes and
 * draw order) is bit-identical to the Python InteractionSource. */
static void repro_run_epoch_row(
    int64_t *codes, uint64_t *rngw, int64_t *src, int64_t *buffer,
    const int64_t *du, const int64_t *dv, int64_t m,
    const int32_t *dpack, int64_t k, int32_t kshift, uint8_t *seen,
    int64_t batch, int64_t check_interval, int64_t max_steps,
    int64_t *step_io, int64_t *last_io, int64_t *lead_io, uint8_t *status,
    int32_t precheck)
{
    repro_pcg64 p;
    const int64_t kmask = k - 1;
    int64_t cursor = src[0];
    int64_t fill = src[1];
    int64_t position = src[2];
    int64_t step = *step_io;
    int64_t last = *last_io;
    int64_t lead = *lead_io;
    repro_pcg64_load(rngw, &p);
    while (step < max_steps) {
        int64_t block_end = (step / check_interval + 1) * check_interval;
        if (block_end > max_steps)
            block_end = max_steps;
        while (step < block_end) {
            int64_t idx, u, v, a, b, val, na, nb;
            int32_t pk;
            if (cursor >= fill) {
                fill = repro_source_refill(&p, buffer, batch, block_end - step, m);
                cursor = 0;
            }
            idx = buffer[cursor];
            u = du[idx];
            v = dv[idx];
            a = codes[u];
            b = codes[v];
            pk = dpack[a * k + b];
            if (pk < 0) {
                *status = REPRO_EPOCH_MISS;
                goto done;
            }
            cursor++;
            position++;
            val = (int64_t)(pk >> 4);
            na = val >> kshift;
            nb = val & kmask;
            codes[u] = na;
            codes[v] = nb;
            seen[na] = 1;
            seen[nb] = 1;
            step++;
            if (pk & 1)
                last = step;
            lead += ((pk >> 1) & 7) - 2;
        }
        if (!precheck || lead == 1) {
            *status = REPRO_EPOCH_BOUNDARY;
            goto done;
        }
    }
    *status = REPRO_EPOCH_BUDGET;
done:
    repro_pcg64_store(&p, rngw);
    src[0] = cursor;
    src[1] = fill;
    src[2] = position;
    *step_io = step;
    *last_io = last;
    *lead_io = lead;
}

typedef struct {
    int64_t *codes;
    uint64_t *rng_state;
    int64_t *src_state;
    int64_t *buffers;
    int64_t buf_cap;
    const int64_t *du;
    const int64_t *dv;
    int64_t m;
    int64_t n;
    const int32_t *dpack;
    int64_t k;
    int32_t kshift;
    uint8_t *seen;
    int64_t batch;
    int64_t check_interval;
    int64_t max_steps;
    int64_t *steps;
    int64_t *last_change;
    int64_t *leaders;
    uint8_t *status;
    int32_t precheck;
    int64_t lo;
    int64_t hi;
} repro_epoch_job;

static void *repro_epoch_worker(void *arg)
{
    repro_epoch_job *job = (repro_epoch_job *)arg;
    int64_t r;
    for (r = job->lo; r < job->hi; r++)
        repro_run_epoch_row(
            job->codes + r * job->n,
            job->rng_state + r * REPRO_RNG_WORDS,
            job->src_state + r * REPRO_SRC_WORDS,
            job->buffers + r * job->buf_cap,
            job->du, job->dv, job->m,
            job->dpack, job->k, job->kshift,
            job->seen + r * job->k,
            job->batch, job->check_interval, job->max_steps,
            job->steps + r, job->last_change + r, job->leaders + r,
            job->status + r, job->precheck);
    return 0;
}

/* Replica ranges are contiguous and every row touches only its own
 * state, so any thread count (including 1) produces identical output. */
void repro_run_epoch(int64_t *codes, uint64_t *rng_state, int64_t *src_state,
                     int64_t *buffers, int64_t buf_cap,
                     const int64_t *du, const int64_t *dv, int64_t m,
                     int64_t nrep, int64_t n,
                     const int32_t *dpack, int64_t k, int32_t kshift,
                     uint8_t *seen, int64_t batch, int64_t check_interval,
                     int64_t max_steps, int64_t *steps, int64_t *last_change,
                     int64_t *leaders, uint8_t *status, int32_t precheck,
                     int64_t n_threads)
{
    repro_epoch_job jobs[REPRO_MAX_THREADS];
    pthread_t tids[REPRO_MAX_THREADS];
    int created[REPRO_MAX_THREADS];
    repro_epoch_job shared;
    int64_t base, rem, lo;
    int64_t t;
    shared.codes = codes;
    shared.rng_state = rng_state;
    shared.src_state = src_state;
    shared.buffers = buffers;
    shared.buf_cap = buf_cap;
    shared.du = du;
    shared.dv = dv;
    shared.m = m;
    shared.n = n;
    shared.dpack = dpack;
    shared.k = k;
    shared.kshift = kshift;
    shared.seen = seen;
    shared.batch = batch;
    shared.check_interval = check_interval;
    shared.max_steps = max_steps;
    shared.steps = steps;
    shared.last_change = last_change;
    shared.leaders = leaders;
    shared.status = status;
    shared.precheck = precheck;
    if (n_threads > nrep)
        n_threads = nrep;
    if (n_threads > REPRO_MAX_THREADS)
        n_threads = REPRO_MAX_THREADS;
    if (n_threads <= 1) {
        shared.lo = 0;
        shared.hi = nrep;
        repro_epoch_worker(&shared);
        return;
    }
    base = nrep / n_threads;
    rem = nrep % n_threads;
    lo = 0;
    for (t = 0; t < n_threads; t++) {
        jobs[t] = shared;
        jobs[t].lo = lo;
        lo += base + (t < rem ? 1 : 0);
        jobs[t].hi = lo;
        created[t] = 0;
        if (t > 0 && jobs[t].lo < jobs[t].hi)
            created[t] = pthread_create(&tids[t], 0, repro_epoch_worker, &jobs[t]) == 0;
    }
    repro_epoch_worker(&jobs[0]);
    for (t = 1; t < n_threads; t++) {
        if (created[t])
            pthread_join(tids[t], 0);
        else if (jobs[t].lo < jobs[t].hi)
            repro_epoch_worker(&jobs[t]); /* pthread_create failed: run inline */
    }
}

/* ---- Analytics epochs: in-kernel directed-dialect streams -------- */

/* One lockstep block of the single-source epidemic with draws generated
 * in-kernel (integers(0, bound) per step, the directed dialect).  A
 * finished replica keeps drawing to the end of the block — the numpy
 * path draws whole rows up front — so its exported generator state stays
 * bit-identical to the Python engine's. */
typedef struct {
    uint8_t *informed;
    uint64_t *rng_state;
    const int64_t *du;
    const int64_t *dv;
    uint64_t bound;
    int64_t block;
    int64_t n;
    const uint8_t *stopmask;
    int64_t *counts;
    int64_t *finish;
    int64_t lo;
    int64_t hi;
} repro_bcast_job;

static void *repro_bcast_worker(void *arg)
{
    repro_bcast_job *job = (repro_bcast_job *)arg;
    uint64_t rng = job->bound - 1;
    int64_t r;
    for (r = job->lo; r < job->hi; r++) {
        uint8_t *inf = job->informed + r * job->n;
        const uint8_t *stop = job->stopmask ? job->stopmask + r * job->n : 0;
        repro_pcg64 p;
        int64_t count = job->counts[r];
        int64_t fin = -1;
        int64_t i;
        repro_pcg64_load(job->rng_state + r * REPRO_RNG_WORDS, &p);
        for (i = 0; i < job->block; i++) {
            int64_t idx = (int64_t)repro_bounded64(&p, rng);
            int64_t u, v;
            uint8_t a, b;
            if (fin >= 0)
                continue; /* burn the rest of the block's draws */
            u = job->du[idx];
            v = job->dv[idx];
            a = inf[u];
            b = inf[v];
            if (a != b) {
                int64_t fresh = a ? v : u;
                inf[u] = 1;
                inf[v] = 1;
                count++;
                if (stop ? stop[fresh] : (count == job->n))
                    fin = i + 1;
            }
        }
        repro_pcg64_store(&p, job->rng_state + r * REPRO_RNG_WORDS);
        job->counts[r] = count;
        job->finish[r] = fin;
    }
    return 0;
}

void repro_broadcast_epoch(uint8_t *informed, uint64_t *rng_state,
                           const int64_t *du, const int64_t *dv,
                           uint64_t bound, int64_t nrep, int64_t block,
                           int64_t n, const uint8_t *stopmask,
                           int64_t *counts, int64_t *finish,
                           int64_t n_threads)
{
    repro_bcast_job jobs[REPRO_MAX_THREADS];
    pthread_t tids[REPRO_MAX_THREADS];
    int created[REPRO_MAX_THREADS];
    repro_bcast_job shared;
    int64_t base, rem, lo, t;
    shared.informed = informed;
    shared.rng_state = rng_state;
    shared.du = du;
    shared.dv = dv;
    shared.bound = bound;
    shared.block = block;
    shared.n = n;
    shared.stopmask = stopmask;
    shared.counts = counts;
    shared.finish = finish;
    if (n_threads > nrep)
        n_threads = nrep;
    if (n_threads > REPRO_MAX_THREADS)
        n_threads = REPRO_MAX_THREADS;
    if (n_threads <= 1) {
        shared.lo = 0;
        shared.hi = nrep;
        repro_bcast_worker(&shared);
        return;
    }
    base = nrep / n_threads;
    rem = nrep % n_threads;
    lo = 0;
    for (t = 0; t < n_threads; t++) {
        jobs[t] = shared;
        jobs[t].lo = lo;
        lo += base + (t < rem ? 1 : 0);
        jobs[t].hi = lo;
        created[t] = 0;
        if (t > 0 && jobs[t].lo < jobs[t].hi)
            created[t] = pthread_create(&tids[t], 0, repro_bcast_worker, &jobs[t]) == 0;
    }
    repro_bcast_worker(&jobs[0]);
    for (t = 1; t < n_threads; t++) {
        if (created[t])
            pthread_join(tids[t], 0);
        else if (jobs[t].lo < jobs[t].hi)
            repro_bcast_worker(&jobs[t]);
    }
}

/* All-pairs influence block with in-kernel draws; same burn semantics. */
typedef struct {
    uint64_t *bits;
    uint64_t *rng_state;
    const int64_t *du;
    const int64_t *dv;
    uint64_t bound;
    int64_t block;
    int64_t n;
    int64_t w;
    const uint64_t *full;
    uint8_t *full_flags;
    int64_t *counts;
    int64_t *finish;
    int64_t lo;
    int64_t hi;
} repro_infl_job;

static void *repro_infl_worker(void *arg)
{
    repro_infl_job *job = (repro_infl_job *)arg;
    uint64_t rng = job->bound - 1;
    int64_t r;
    for (r = job->lo; r < job->hi; r++) {
        uint64_t *rb = job->bits + r * job->n * job->w;
        uint8_t *flags = job->full_flags + r * job->n;
        repro_pcg64 p;
        int64_t count = job->counts[r];
        int64_t fin = -1;
        int64_t i;
        repro_pcg64_load(job->rng_state + r * REPRO_RNG_WORDS, &p);
        for (i = 0; i < job->block; i++) {
            int64_t idx = (int64_t)repro_bounded64(&p, rng);
            int64_t u, v, j;
            uint8_t fu, fv;
            uint64_t *pu, *pv;
            int alleq;
            if (fin >= 0)
                continue;
            u = job->du[idx];
            v = job->dv[idx];
            fu = flags[u];
            fv = flags[v];
            if (fu && fv)
                continue;
            pu = rb + u * job->w;
            pv = rb + v * job->w;
            alleq = 1;
            for (j = 0; j < job->w; j++) {
                uint64_t merged = pu[j] | pv[j];
                pu[j] = merged;
                pv[j] = merged;
                if (merged != job->full[j])
                    alleq = 0;
            }
            if (alleq) {
                count += (fu == 0) + (fv == 0);
                flags[u] = 1;
                flags[v] = 1;
                if (count == job->n)
                    fin = i + 1;
            }
        }
        repro_pcg64_store(&p, job->rng_state + r * REPRO_RNG_WORDS);
        job->counts[r] = count;
        job->finish[r] = fin;
    }
    return 0;
}

void repro_influence_epoch(uint64_t *bits, uint64_t *rng_state,
                           const int64_t *du, const int64_t *dv,
                           uint64_t bound, int64_t nrep, int64_t block,
                           int64_t n, int64_t w, const uint64_t *full,
                           uint8_t *full_flags, int64_t *counts,
                           int64_t *finish, int64_t n_threads)
{
    repro_infl_job jobs[REPRO_MAX_THREADS];
    pthread_t tids[REPRO_MAX_THREADS];
    int created[REPRO_MAX_THREADS];
    repro_infl_job shared;
    int64_t base, rem, lo, t;
    shared.bits = bits;
    shared.rng_state = rng_state;
    shared.du = du;
    shared.dv = dv;
    shared.bound = bound;
    shared.block = block;
    shared.n = n;
    shared.w = w;
    shared.full = full;
    shared.full_flags = full_flags;
    shared.counts = counts;
    shared.finish = finish;
    if (n_threads > nrep)
        n_threads = nrep;
    if (n_threads > REPRO_MAX_THREADS)
        n_threads = REPRO_MAX_THREADS;
    if (n_threads <= 1) {
        shared.lo = 0;
        shared.hi = nrep;
        repro_infl_worker(&shared);
        return;
    }
    base = nrep / n_threads;
    rem = nrep % n_threads;
    lo = 0;
    for (t = 0; t < n_threads; t++) {
        jobs[t] = shared;
        jobs[t].lo = lo;
        lo += base + (t < rem ? 1 : 0);
        jobs[t].hi = lo;
        created[t] = 0;
        if (t > 0 && jobs[t].lo < jobs[t].hi)
            created[t] = pthread_create(&tids[t], 0, repro_infl_worker, &jobs[t]) == 0;
    }
    repro_infl_worker(&jobs[0]);
    for (t = 1; t < n_threads; t++) {
        if (created[t])
            pthread_join(tids[t], 0);
        else if (jobs[t].lo < jobs[t].hi)
            repro_infl_worker(&jobs[t]);
    }
}
"""

_UNSET = object()
_cached_kernel = _UNSET

#: uint64 words per replica in a PCG64 state row (the fields of numpy's
#: ``PCG64().state`` dict: state hi/lo, inc hi/lo, has_uint32, uinteger,
#: plus two words of padding).
RNG_STATE_WORDS = 8
#: int64 words per replica in an InteractionSource state row
#: (cursor, fill, position).
SRC_STATE_WORDS = 3
#: Upper bound on the kernel's pthread fan-out (mirrors REPRO_MAX_THREADS).
MAX_KERNEL_THREADS = 64


def kernel_thread_count() -> int:
    """Replica-axis thread count requested via ``REPRO_KERNEL_THREADS``.

    Defaults to 1 (fully sequential); values above
    :data:`MAX_KERNEL_THREADS` are capped.  Results are bit-identical for
    any value — threading only partitions independent replica rows — so
    this is purely a throughput dial.  Anything but a positive integer
    raises :class:`ValueError`.
    """
    raw = os.environ.get("REPRO_KERNEL_THREADS", "").strip()
    if not raw:
        return 1
    message = f"REPRO_KERNEL_THREADS must be a positive integer, got {raw!r}"
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(message) from exc
    if value < 1:
        raise ValueError(message)
    return min(value, MAX_KERNEL_THREADS)


def _build_directory() -> str:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_build")
    os.makedirs(path, exist_ok=True)
    return path


def _compile_flags():
    """The fixed compiler flags plus ``REPRO_KERNEL_CFLAGS`` (sanitizer builds)."""
    extra = os.environ.get("REPRO_KERNEL_CFLAGS", "").split()
    return ["-O2", "-shared", "-fPIC", "-pthread", *extra]


def _kernel_paths(build_dir: str, source: str, flags) -> tuple:
    """The ``.c`` and ``.so`` paths for building ``source`` with ``flags``.

    Both are named by one digest over the source text and the flags, so an
    edited kernel or another flag set never loads a stale cached library.
    """
    digest = hashlib.sha256("\0".join([source, *flags]).encode("utf-8")).hexdigest()[:16]
    stem = os.path.join(build_dir, f"_kernel_{digest}")
    return stem + ".c", stem + ".so"


def _compile_kernel():
    compiler = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if compiler is None:
        return None
    flags = _compile_flags()
    src_path, so_path = _kernel_paths(_build_directory(), _KERNEL_SOURCE, flags)
    if not os.path.exists(so_path):
        with open(src_path, "w", encoding="utf-8") as handle:
            handle.write(_KERNEL_SOURCE)
        tmp_path = so_path + f".tmp{os.getpid()}"
        subprocess.run(
            [compiler, *flags, "-o", tmp_path, src_path],
            check=True,
            capture_output=True,
            timeout=180,
        )
        os.replace(tmp_path, so_path)
    return _bind_kernels(ctypes.CDLL(so_path))


def _bind_kernels(library):
    """ctypes signatures for every kernel entry point, by name."""
    run_block = library.repro_run_block
    run_block.restype = ctypes.c_int64
    run_block.argtypes = [
        ctypes.c_void_p,  # codes
        ctypes.c_void_p,  # iu
        ctypes.c_void_p,  # iv
        ctypes.c_int64,  # nsteps
        ctypes.c_void_p,  # dpack
        ctypes.c_int64,  # k
        ctypes.c_int32,  # kshift
        ctypes.c_void_p,  # seen
        ctypes.c_int64,  # step0
        ctypes.POINTER(ctypes.c_int64),  # last_change_io
        ctypes.POINTER(ctypes.c_int64),  # leaders_io
    ]
    run_shard_block = library.repro_run_shard_block
    run_shard_block.restype = ctypes.c_int64
    run_shard_block.argtypes = [
        ctypes.c_void_p,  # codes (one shard's contiguous block)
        ctypes.c_void_p,  # iu (shard-local initiator indices)
        ctypes.c_void_p,  # iv (shard-local responder indices)
        ctypes.c_void_p,  # steps (per-draw global step numbers)
        ctypes.c_int64,  # nsteps
        ctypes.c_void_p,  # dpack
        ctypes.c_int64,  # k
        ctypes.c_int32,  # kshift
        ctypes.c_void_p,  # seen
        ctypes.POINTER(ctypes.c_int64),  # last_change_io
        ctypes.POINTER(ctypes.c_int64),  # leaders_io
    ]
    run_sharded_chunk = library.repro_run_sharded_chunk
    run_sharded_chunk.restype = ctypes.c_int64
    run_sharded_chunk.argtypes = [
        ctypes.c_void_p,  # codes (the global code array)
        ctypes.c_void_p,  # iu (global initiator indices, draw order)
        ctypes.c_void_p,  # iv (global responder indices, draw order)
        ctypes.c_int64,  # start (resume offset within the chunk)
        ctypes.c_int64,  # nsteps
        ctypes.c_int64,  # step0
        ctypes.c_void_p,  # boundary_pos (ascending chunk positions)
        ctypes.c_int64,  # n_boundary
        ctypes.c_void_p,  # applied (out: non-null flag per boundary)
        ctypes.c_void_p,  # dpack
        ctypes.c_int64,  # k
        ctypes.c_int32,  # kshift
        ctypes.c_void_p,  # seen
        ctypes.POINTER(ctypes.c_int64),  # last_change_io
        ctypes.POINTER(ctypes.c_int64),  # leaders_io
    ]
    broadcast_block = library.repro_broadcast_block
    broadcast_block.restype = ctypes.c_int64
    broadcast_block.argtypes = [
        ctypes.c_void_p,  # informed
        ctypes.c_void_p,  # iu
        ctypes.c_void_p,  # iv
        ctypes.c_int64,  # nsteps
        ctypes.c_int64,  # n
        ctypes.POINTER(ctypes.c_int64),  # count_io
    ]
    splitmix64 = library.repro_splitmix64
    splitmix64.restype = ctypes.c_uint64
    splitmix64.argtypes = [ctypes.c_uint64]
    derive = library.repro_derive_seed
    derive.restype = ctypes.c_uint64
    derive.argtypes = [ctypes.c_void_p, ctypes.c_int64]  # words, count
    pcg64_init = library.repro_pcg64_init
    pcg64_init.restype = None
    pcg64_init.argtypes = [
        ctypes.c_void_p,  # seeds (nrep)
        ctypes.c_int64,  # nrep
        ctypes.c_void_p,  # rng_state (nrep x RNG_STATE_WORDS)
    ]
    pcg64_raw = library.repro_pcg64_raw
    pcg64_raw.restype = None
    pcg64_raw.argtypes = [
        ctypes.c_void_p,  # rng_state (one row)
        ctypes.c_int64,  # count
        ctypes.c_void_p,  # out (count)
    ]
    bounded_fill = library.repro_bounded_fill
    bounded_fill.restype = None
    bounded_fill.argtypes = [
        ctypes.c_void_p,  # rng_state (one row)
        ctypes.c_uint64,  # bound
        ctypes.c_int64,  # count
        ctypes.c_void_p,  # out (count)
    ]
    source_fill = library.repro_source_fill
    source_fill.restype = None
    source_fill.argtypes = [
        ctypes.c_void_p,  # rng_state (one row)
        ctypes.c_void_p,  # src_state (one row)
        ctypes.c_void_p,  # buffer (>= max(batch, count))
        ctypes.c_int64,  # m
        ctypes.c_int64,  # batch
        ctypes.c_int64,  # count
        ctypes.c_void_p,  # out (count)
    ]
    run_epoch = library.repro_run_epoch
    run_epoch.restype = None
    run_epoch.argtypes = [
        ctypes.c_void_p,  # codes (nrep x n)
        ctypes.c_void_p,  # rng_state (nrep x RNG_STATE_WORDS)
        ctypes.c_void_p,  # src_state (nrep x SRC_STATE_WORDS)
        ctypes.c_void_p,  # buffers (nrep x buf_cap)
        ctypes.c_int64,  # buf_cap
        ctypes.c_void_p,  # du (2m)
        ctypes.c_void_p,  # dv (2m)
        ctypes.c_int64,  # m
        ctypes.c_int64,  # nrep
        ctypes.c_int64,  # n
        ctypes.c_void_p,  # dpack
        ctypes.c_int64,  # k
        ctypes.c_int32,  # kshift
        ctypes.c_void_p,  # seen (nrep x k)
        ctypes.c_int64,  # batch
        ctypes.c_int64,  # check_interval
        ctypes.c_int64,  # max_steps
        ctypes.c_void_p,  # steps (nrep)
        ctypes.c_void_p,  # last_change (nrep)
        ctypes.c_void_p,  # leaders (nrep)
        ctypes.c_void_p,  # status (nrep)
        ctypes.c_int32,  # precheck
        ctypes.c_int64,  # n_threads
    ]
    broadcast_epoch = library.repro_broadcast_epoch
    broadcast_epoch.restype = None
    broadcast_epoch.argtypes = [
        ctypes.c_void_p,  # informed (nrep x n)
        ctypes.c_void_p,  # rng_state (nrep x RNG_STATE_WORDS)
        ctypes.c_void_p,  # du (2m)
        ctypes.c_void_p,  # dv (2m)
        ctypes.c_uint64,  # bound (2m)
        ctypes.c_int64,  # nrep
        ctypes.c_int64,  # block
        ctypes.c_int64,  # n
        ctypes.c_void_p,  # stopmask (nrep x n) or None
        ctypes.c_void_p,  # counts (nrep)
        ctypes.c_void_p,  # finish (nrep)
        ctypes.c_int64,  # n_threads
    ]
    influence_epoch = library.repro_influence_epoch
    influence_epoch.restype = None
    influence_epoch.argtypes = [
        ctypes.c_void_p,  # bits (nrep x n x w)
        ctypes.c_void_p,  # rng_state (nrep x RNG_STATE_WORDS)
        ctypes.c_void_p,  # du (2m)
        ctypes.c_void_p,  # dv (2m)
        ctypes.c_uint64,  # bound (2m)
        ctypes.c_int64,  # nrep
        ctypes.c_int64,  # block
        ctypes.c_int64,  # n
        ctypes.c_int64,  # w
        ctypes.c_void_p,  # full (w)
        ctypes.c_void_p,  # full_flags (nrep x n)
        ctypes.c_void_p,  # counts (nrep)
        ctypes.c_void_p,  # finish (nrep)
        ctypes.c_int64,  # n_threads
    ]
    return {
        "run_block": run_block,
        "run_shard_block": run_shard_block,
        "run_sharded_chunk": run_sharded_chunk,
        "broadcast_block": broadcast_block,
        "splitmix64": splitmix64,
        "derive_seed": derive,
        "pcg64_init": pcg64_init,
        "pcg64_raw": pcg64_raw,
        "bounded_fill": bounded_fill,
        "source_fill": source_fill,
        "run_epoch": run_epoch,
        "broadcast_epoch": broadcast_epoch,
        "influence_epoch": influence_epoch,
    }


def _kernels():
    global _cached_kernel
    if _cached_kernel is not _UNSET:
        return _cached_kernel
    if os.environ.get("REPRO_DISABLE_NATIVE"):
        _cached_kernel = None
        return None
    try:
        _cached_kernel = _compile_kernel()
    except Exception:
        _cached_kernel = None
    return _cached_kernel


def get_kernel():
    """The compiled protocol-stepping entry point, or ``None``."""
    kernels = _kernels()
    return None if kernels is None else kernels["run_block"]


def get_run_shard_kernel():
    """The shard-local block-run entry point (explicit step array), or ``None``."""
    kernels = _kernels()
    return None if kernels is None else kernels["run_shard_block"]


def get_run_sharded_chunk_kernel():
    """The whole-chunk sharded entry point (global indices), or ``None``."""
    kernels = _kernels()
    return None if kernels is None else kernels["run_sharded_chunk"]


def get_broadcast_kernel():
    """The compiled single-source-epidemic entry point, or ``None``."""
    kernels = _kernels()
    return None if kernels is None else kernels["broadcast_block"]


def get_run_epoch_kernel():
    """The whole-epoch protocol kernel (in-kernel streams), or ``None``."""
    kernels = _kernels()
    return None if kernels is None else kernels["run_epoch"]


def get_broadcast_epoch_kernel():
    """The replica-batched epidemic kernel with in-kernel draws, or ``None``."""
    kernels = _kernels()
    return None if kernels is None else kernels["broadcast_epoch"]


def get_influence_epoch_kernel():
    """The replica-batched all-pairs influence kernel with in-kernel draws, or ``None``."""
    kernels = _kernels()
    return None if kernels is None else kernels["influence_epoch"]


def get_rng_kernels():
    """The in-kernel RNG/stream primitives for the differential tests, or ``None``.

    Keys: ``splitmix64``, ``derive_seed``, ``pcg64_init``, ``pcg64_raw``,
    ``bounded_fill``, ``source_fill``.
    """
    kernels = _kernels()
    if kernels is None:
        return None
    return {
        name: kernels[name]
        for name in (
            "splitmix64",
            "derive_seed",
            "pcg64_init",
            "pcg64_raw",
            "bounded_fill",
            "source_fill",
        )
    }


def reset_kernel_cache() -> None:
    """Forget the cached kernel handle (tests toggling the env vars)."""
    global _cached_kernel
    _cached_kernel = _UNSET
