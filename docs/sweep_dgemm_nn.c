/* Generated by the BEAST search-space translator (Go reproduction).
 * Loop nest order: dim_m, dim_n, blk_m, blk_n, blk_k, dim_vec, vec_mul, dim_m_a, dim_n_a, dim_m_b, dim_n_b, tex_a, tex_b, shmem_l1, shmem_banks
 * Tuple emission order: dim_m, dim_n, blk_m, blk_n, blk_k, dim_vec, vec_mul, dim_m_a, dim_n_a, dim_m_b, dim_n_b, tex_a, tex_b, shmem_l1, shmem_banks
 * 12 constraints, 21 folded constants. Do not edit. */
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <pthread.h>

typedef int64_t i64;

/* Python floor division and modulo, total on zero divisors. */
static i64 beast_div(i64 a, i64 b) {
    if (b == 0) return 0;
    if (b == -1) return a == INT64_MIN ? a : -a; /* wraps like Go */
    i64 q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q--;
    return q;
}
static i64 beast_mod(i64 a, i64 b) {
    if (b == 0 || b == -1) return 0;
    i64 r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}
static i64 beast_min(i64 a, i64 b) { return a < b ? a : b; }
static i64 beast_max(i64 a, i64 b) { return a > b ? a : b; }
static i64 beast_abs(i64 a) { return a < 0 && a != INT64_MIN ? -a : a; }

/* Set-bit count (SWAR) for the chunked inner loop's survivor mask. */
static i64 beast_popcount(uint64_t x) {
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (i64)((x * 0x0101010101010101ULL) >> 56);
}


typedef struct {
    i64 visits[15];
    i64 checks[12];
    i64 kills[12];
    i64 survivors;
} beast_stats;

typedef void (*beast_on_tuple)(const i64 *vals, int n, void *ctx);

void beast_enumerate(beast_stats *st, beast_on_tuple on_tuple, void *ctx) {
    (void)on_tuple; (void)ctx;
    const i64 trans_a = 0;
    const i64 trans_b = 0;
    const i64 max_threads_per_block = 1024;
    const i64 max_threads_dim_x = 1024;
    const i64 max_threads_dim_y = 1024;
    const i64 max_shared_mem_per_block = 49152;
    const i64 warp_size = 32;
    const i64 max_regs_per_block = 65536;
    const i64 max_threads_per_multi_processor = 2048;
    const i64 cudamajor = 3;
    const i64 cudaminor = 5;
    const i64 max_registers_per_multi_processor = 65536;
    const i64 max_shmem_per_multi_processor = 49152;
    const i64 float_size = 4;
    const i64 min_threads_per_multi_processor = 256;
    const i64 min_fmas_per_load = 2;

    for (i64 dim_m = 1; dim_m < (1025); dim_m += 1) {
        st->visits[0]++;
        {
            const i64 beast_step_1 = 1;
            i64 beast_lo_1 = 1, beast_hi_1 = (1025);
            { /* narrow: over_max_threads (hard) */
                const i64 beast_before_1 = (beast_hi_1 > beast_lo_1 ? (beast_hi_1 - beast_lo_1 + beast_step_1 - 1) / beast_step_1 : 0);
                { const i64 beast_b_1 = (beast_div(1024, dim_m) + 1); if (beast_b_1 < beast_hi_1) beast_hi_1 = beast_b_1; }
                const i64 beast_skip_1 = beast_before_1 - (beast_hi_1 > beast_lo_1 ? (beast_hi_1 - beast_lo_1 + beast_step_1 - 1) / beast_step_1 : 0);
                if (beast_skip_1 > 0) { st->checks[0] += beast_skip_1; st->kills[0] += beast_skip_1; }
            }
            for (i64 dim_n = beast_lo_1; dim_n < beast_hi_1; dim_n += beast_step_1) {
                st->visits[1]++;
                const i64 threads_per_block = (dim_m * dim_n);
                st->checks[7]++; /* partial_warps (soft) */
                if ((beast_mod(threads_per_block, 32) != 0)) { st->kills[7]++; continue; }
                {
                    const i64 beast_stop_2 = 1025, beast_step_2 = dim_m;
                    for (i64 blk_m = dim_m; beast_step_2 > 0 ? blk_m < beast_stop_2 : (beast_step_2 < 0 && blk_m > beast_stop_2); blk_m += beast_step_2) {
                        st->visits[2]++;
                        const i64 thr_m = beast_div(blk_m, dim_m);
                        {
                            const i64 beast_step_3 = dim_n;
                            i64 beast_lo_3 = dim_n, beast_hi_3 = (1025);
                            if (beast_step_3 > 0) {
                                { /* narrow: over_max_regs_per_thread (hard) */
                                    const i64 beast_before_3 = (beast_hi_3 > beast_lo_3 ? (beast_hi_3 - beast_lo_3 + beast_step_3 - 1) / beast_step_3 : 0);
                                    {
                                        i64 beast_sl_3 = 0, beast_sh_3 = (beast_hi_3 > beast_lo_3 ? (beast_hi_3 - beast_lo_3 + beast_step_3 - 1) / beast_step_3 : 0);
                                        while (beast_sl_3 < beast_sh_3) {
                                            const i64 beast_mid_3 = beast_sl_3 + (beast_sh_3 - beast_sl_3) / 2;
                                            const i64 blk_n = beast_lo_3 + beast_mid_3 * beast_step_3;
                                            if ((((thr_m * beast_div(blk_n, dim_n)) * 2) > 255)) beast_sh_3 = beast_mid_3; else beast_sl_3 = beast_mid_3 + 1;
                                        }
                                        beast_hi_3 = beast_lo_3 + beast_sl_3 * beast_step_3;
                                    }
                                    const i64 beast_skip_3 = beast_before_3 - (beast_hi_3 > beast_lo_3 ? (beast_hi_3 - beast_lo_3 + beast_step_3 - 1) / beast_step_3 : 0);
                                    if (beast_skip_3 > 0) { st->checks[1] += beast_skip_3; st->kills[1] += beast_skip_3; }
                                }
                                { /* narrow: over_max_regs_per_block (hard) */
                                    const i64 beast_before_3 = (beast_hi_3 > beast_lo_3 ? (beast_hi_3 - beast_lo_3 + beast_step_3 - 1) / beast_step_3 : 0);
                                    {
                                        i64 beast_sl_3 = 0, beast_sh_3 = (beast_hi_3 > beast_lo_3 ? (beast_hi_3 - beast_lo_3 + beast_step_3 - 1) / beast_step_3 : 0);
                                        while (beast_sl_3 < beast_sh_3) {
                                            const i64 beast_mid_3 = beast_sl_3 + (beast_sh_3 - beast_sl_3) / 2;
                                            const i64 blk_n = beast_lo_3 + beast_mid_3 * beast_step_3;
                                            if (((((thr_m * beast_div(blk_n, dim_n)) * 2) * threads_per_block) > 65536)) beast_sh_3 = beast_mid_3; else beast_sl_3 = beast_mid_3 + 1;
                                        }
                                        beast_hi_3 = beast_lo_3 + beast_sl_3 * beast_step_3;
                                    }
                                    const i64 beast_skip_3 = beast_before_3 - (beast_hi_3 > beast_lo_3 ? (beast_hi_3 - beast_lo_3 + beast_step_3 - 1) / beast_step_3 : 0);
                                    if (beast_skip_3 > 0) { st->checks[2] += beast_skip_3; st->kills[2] += beast_skip_3; }
                                }
                            }
                            for (i64 blk_n = beast_lo_3; beast_step_3 > 0 ? blk_n < beast_hi_3 : (beast_step_3 < 0 && blk_n > beast_hi_3); blk_n += beast_step_3) {
                                st->visits[3]++;
                                const i64 thr_n = beast_div(blk_n, dim_n);
                                const i64 beast_t0 = (thr_m * thr_n);
                                const i64 regs_per_thread = (beast_t0 * 2);
                                const i64 regs_per_block = (regs_per_thread * threads_per_block);
                                const i64 max_blocks_by_regs = beast_min(beast_div(65536, regs_per_block), 16);
                                const i64 max_threads_by_regs = (max_blocks_by_regs * threads_per_block);
                                st->checks[4]++; /* low_occupancy_regs (soft) */
                                if ((max_threads_by_regs < 256)) { st->kills[4]++; continue; }
                                const i64 beast_t1 = (blk_m + blk_n);
                                const i64 beast_t3 = (thr_m + thr_n);
                                {
                                    const i64 beast_step_4 = 1;
                                    i64 beast_lo_4 = 1, beast_hi_4 = (1025);
                                    { /* narrow: over_max_shmem (hard) */
                                        const i64 beast_before_4 = (beast_hi_4 > beast_lo_4 ? (beast_hi_4 - beast_lo_4 + beast_step_4 - 1) / beast_step_4 : 0);
                                        { const i64 beast_b_4 = (beast_div(6144, beast_t1) + 1); if (beast_b_4 < beast_hi_4) beast_hi_4 = beast_b_4; }
                                        const i64 beast_skip_4 = beast_before_4 - (beast_hi_4 > beast_lo_4 ? (beast_hi_4 - beast_lo_4 + beast_step_4 - 1) / beast_step_4 : 0);
                                        if (beast_skip_4 > 0) { st->checks[3] += beast_skip_4; st->kills[3] += beast_skip_4; }
                                    }
                                    { /* narrow: low_occupancy_shmem (soft) */
                                        const i64 beast_before_4 = (beast_hi_4 > beast_lo_4 ? (beast_hi_4 - beast_lo_4 + beast_step_4 - 1) / beast_step_4 : 0);
                                        {
                                            i64 beast_sl_4 = 0, beast_sh_4 = (beast_hi_4 > beast_lo_4 ? (beast_hi_4 - beast_lo_4 + beast_step_4 - 1) / beast_step_4 : 0);
                                            while (beast_sl_4 < beast_sh_4) {
                                                const i64 beast_mid_4 = beast_sl_4 + (beast_sh_4 - beast_sl_4) / 2;
                                                const i64 blk_k = beast_lo_4 + beast_mid_4 * beast_step_4;
                                                if (((beast_min(beast_div(49152, (((blk_k * (blk_m + blk_n)) * 4) * 2)), 16) * threads_per_block) < 256)) beast_sh_4 = beast_mid_4; else beast_sl_4 = beast_mid_4 + 1;
                                            }
                                            beast_hi_4 = beast_lo_4 + beast_sl_4 * beast_step_4;
                                        }
                                        const i64 beast_skip_4 = beast_before_4 - (beast_hi_4 > beast_lo_4 ? (beast_hi_4 - beast_lo_4 + beast_step_4 - 1) / beast_step_4 : 0);
                                        if (beast_skip_4 > 0) { st->checks[5] += beast_skip_4; st->kills[5] += beast_skip_4; }
                                    }
                                    for (i64 blk_k = beast_lo_4; blk_k < beast_hi_4; blk_k += beast_step_4) {
                                        st->visits[4]++;
                                        const i64 shmem_per_block = (((blk_k * beast_t1) * 4) * 2);
                                        const i64 max_blocks_by_shmem = beast_min(beast_div(49152, shmem_per_block), 16);
                                        const i64 max_threads_by_shmem = (max_blocks_by_shmem * threads_per_block);
                                        const i64 fmas_per_thread = (beast_t0 * blk_k);
                                        const i64 fmas_per_block = (fmas_per_thread * threads_per_block);
                                        const i64 beast_t2 = (beast_t3 * blk_k);
                                        for (i64 dim_vec = 1; dim_vec < (3); dim_vec += 1) {
                                            st->visits[5]++;
                                            const i64 loads_per_thread = beast_div(beast_t2, dim_vec);
                                            const i64 loads_per_block = (loads_per_thread * threads_per_block);
                                            st->checks[6]++; /* low_fmas (soft) */
                                            if ((beast_div(fmas_per_block, loads_per_block) < 2)) { st->kills[6]++; continue; }
                                            {
                                                const i64 beast_stop_6 = ((dim_vec == 1) ? 1 : 2), beast_step_6 = ((dim_vec == 1) ? 1 : 1);
                                                for (i64 vec_mul = ((dim_vec == 1) ? 0 : 0); beast_step_6 > 0 ? vec_mul < beast_stop_6 : (beast_step_6 < 0 && vec_mul > beast_stop_6); vec_mul += beast_step_6) {
                                                    st->visits[6]++;
                                                    for (i64 dim_m_a = 1; dim_m_a < ((beast_div(blk_m, dim_vec) + 1)); dim_m_a += 1) {
                                                        st->visits[7]++;
                                                        const i64 beast_t4 = (beast_mod(blk_m, (dim_m_a * dim_vec)) != 0);
                                                        {
                                                            const i64 beast_step_8 = 1;
                                                            i64 beast_lo_8 = 1, beast_hi_8 = ((blk_k + 1));
                                                            { /* narrow: cant_reshape_a1 (correctness) */
                                                                const i64 beast_before_8 = (beast_hi_8 > beast_lo_8 ? (beast_hi_8 - beast_lo_8 + beast_step_8 - 1) / beast_step_8 : 0);
                                                                { const i64 beast_b_8 = beast_div((threads_per_block + (dim_m_a - 1)), dim_m_a); if (beast_b_8 > beast_lo_8) beast_lo_8 += ((beast_b_8 - beast_lo_8 + beast_step_8 - 1) / beast_step_8) * beast_step_8; }
                                                                { const i64 beast_b_8 = (beast_div(threads_per_block, dim_m_a) + 1); if (beast_b_8 < beast_hi_8) beast_hi_8 = beast_b_8; }
                                                                const i64 beast_skip_8 = beast_before_8 - (beast_hi_8 > beast_lo_8 ? (beast_hi_8 - beast_lo_8 + beast_step_8 - 1) / beast_step_8 : 0);
                                                                if (beast_skip_8 > 0) { st->checks[8] += beast_skip_8; st->kills[8] += beast_skip_8; }
                                                            }
                                                            for (i64 dim_n_a = beast_lo_8; dim_n_a < beast_hi_8; dim_n_a += beast_step_8) {
                                                                st->visits[8]++;
                                                                st->checks[10]++; /* cant_reshape_a2 (correctness) */
                                                                if ((beast_t4 || (beast_mod(blk_k, dim_n_a) != 0))) { st->kills[10]++; continue; }
                                                                for (i64 dim_m_b = 1; dim_m_b < ((beast_div(blk_k, dim_vec) + 1)); dim_m_b += 1) {
                                                                    st->visits[9]++;
                                                                    const i64 beast_t5 = (beast_mod(blk_k, (dim_m_b * dim_vec)) != 0);
                                                                    {
                                                                        const i64 beast_step_10 = 1;
                                                                        i64 beast_lo_10 = 1, beast_hi_10 = ((blk_n + 1));
                                                                        { /* narrow: cant_reshape_b1 (correctness) */
                                                                            const i64 beast_before_10 = (beast_hi_10 > beast_lo_10 ? (beast_hi_10 - beast_lo_10 + beast_step_10 - 1) / beast_step_10 : 0);
                                                                            { const i64 beast_b_10 = beast_div((threads_per_block + (dim_m_b - 1)), dim_m_b); if (beast_b_10 > beast_lo_10) beast_lo_10 += ((beast_b_10 - beast_lo_10 + beast_step_10 - 1) / beast_step_10) * beast_step_10; }
                                                                            { const i64 beast_b_10 = (beast_div(threads_per_block, dim_m_b) + 1); if (beast_b_10 < beast_hi_10) beast_hi_10 = beast_b_10; }
                                                                            const i64 beast_skip_10 = beast_before_10 - (beast_hi_10 > beast_lo_10 ? (beast_hi_10 - beast_lo_10 + beast_step_10 - 1) / beast_step_10 : 0);
                                                                            if (beast_skip_10 > 0) { st->checks[9] += beast_skip_10; st->kills[9] += beast_skip_10; }
                                                                        }
                                                                        for (i64 dim_n_b = beast_lo_10; dim_n_b < beast_hi_10; dim_n_b += beast_step_10) {
                                                                            st->visits[10]++;
                                                                            st->checks[11]++; /* cant_reshape_b2 (correctness) */
                                                                            if ((beast_t5 || (beast_mod(blk_n, dim_n_b) != 0))) { st->kills[11]++; continue; }
                                                                            for (i64 tex_a = 0; tex_a < (2); tex_a += 1) {
                                                                                st->visits[11]++;
                                                                                for (i64 tex_b = 0; tex_b < (2); tex_b += 1) {
                                                                                    st->visits[12]++;
                                                                                    for (i64 shmem_l1 = 0; shmem_l1 < (2); shmem_l1 += 1) {
                                                                                        st->visits[13]++;
                                                                                        { /* chunked innermost loop (chunk=64) */
                                                                                            const i64 beast_step_14 = 1;
                                                                                            i64 beast_lo_14 = 0, beast_hi_14 = (2);
                                                                                            i64 beast_v_shmem_banks[64];
                                                                                            i64 beast_cur_14 = beast_lo_14;
                                                                                            while (beast_cur_14 < beast_hi_14) {
                                                                                                int beast_k = 0;
                                                                                                for (; beast_k < 64 && (beast_cur_14 < beast_hi_14); beast_k++) { beast_v_shmem_banks[beast_k] = beast_cur_14; beast_cur_14 += beast_step_14; }
                                                                                                st->visits[14] += beast_k;
                                                                                                uint64_t beast_mask = beast_k == 64 ? ~(uint64_t)0 : (((uint64_t)1 << beast_k) - 1);
                                                                                                i64 beast_live = beast_k;
                                                                                                (void)beast_live;
                                                                                                for (int beast_i = 0; beast_i < beast_k; beast_i++) {
                                                                                                    if (!((beast_mask >> beast_i) & 1)) continue;
                                                                                                    st->survivors++;
                                                                                                    if (on_tuple) { const i64 beast_tuple[] = {dim_m, dim_n, blk_m, blk_n, blk_k, dim_vec, vec_mul, dim_m_a, dim_n_a, dim_m_b, dim_n_b, tex_a, tex_b, shmem_l1, beast_v_shmem_banks[beast_i]}; on_tuple(beast_tuple, 15, ctx); }
                                                                                                }
                                                                                            }
                                                                                        }
                                                                                    }
                                                                                }
                                                                            }
                                                                        }
                                                                    }
                                                                }
                                                            }
                                                        }
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

static void beast_enumerate_worker(beast_stats *st, beast_on_tuple on_tuple, void *ctx, int tid, int nthreads) {
    (void)on_tuple; (void)ctx;
    const i64 trans_a = 0;
    const i64 trans_b = 0;
    const i64 max_threads_per_block = 1024;
    const i64 max_threads_dim_x = 1024;
    const i64 max_threads_dim_y = 1024;
    const i64 max_shared_mem_per_block = 49152;
    const i64 warp_size = 32;
    const i64 max_regs_per_block = 65536;
    const i64 max_threads_per_multi_processor = 2048;
    const i64 cudamajor = 3;
    const i64 cudaminor = 5;
    const i64 max_registers_per_multi_processor = 65536;
    const i64 max_shmem_per_multi_processor = 49152;
    const i64 float_size = 4;
    const i64 min_threads_per_multi_processor = 256;
    const i64 min_fmas_per_load = 2;

    i64 beast_outer_idx = -1;
    for (i64 dim_m = 1; dim_m < (1025); dim_m += 1) {
        beast_outer_idx++; if (beast_outer_idx % nthreads != tid) continue;
        st->visits[0]++;
        {
            const i64 beast_step_1 = 1;
            i64 beast_lo_1 = 1, beast_hi_1 = (1025);
            { /* narrow: over_max_threads (hard) */
                const i64 beast_before_1 = (beast_hi_1 > beast_lo_1 ? (beast_hi_1 - beast_lo_1 + beast_step_1 - 1) / beast_step_1 : 0);
                { const i64 beast_b_1 = (beast_div(1024, dim_m) + 1); if (beast_b_1 < beast_hi_1) beast_hi_1 = beast_b_1; }
                const i64 beast_skip_1 = beast_before_1 - (beast_hi_1 > beast_lo_1 ? (beast_hi_1 - beast_lo_1 + beast_step_1 - 1) / beast_step_1 : 0);
                if (beast_skip_1 > 0) { st->checks[0] += beast_skip_1; st->kills[0] += beast_skip_1; }
            }
            for (i64 dim_n = beast_lo_1; dim_n < beast_hi_1; dim_n += beast_step_1) {
                st->visits[1]++;
                const i64 threads_per_block = (dim_m * dim_n);
                st->checks[7]++; /* partial_warps (soft) */
                if ((beast_mod(threads_per_block, 32) != 0)) { st->kills[7]++; continue; }
                {
                    const i64 beast_stop_2 = 1025, beast_step_2 = dim_m;
                    for (i64 blk_m = dim_m; beast_step_2 > 0 ? blk_m < beast_stop_2 : (beast_step_2 < 0 && blk_m > beast_stop_2); blk_m += beast_step_2) {
                        st->visits[2]++;
                        const i64 thr_m = beast_div(blk_m, dim_m);
                        {
                            const i64 beast_step_3 = dim_n;
                            i64 beast_lo_3 = dim_n, beast_hi_3 = (1025);
                            if (beast_step_3 > 0) {
                                { /* narrow: over_max_regs_per_thread (hard) */
                                    const i64 beast_before_3 = (beast_hi_3 > beast_lo_3 ? (beast_hi_3 - beast_lo_3 + beast_step_3 - 1) / beast_step_3 : 0);
                                    {
                                        i64 beast_sl_3 = 0, beast_sh_3 = (beast_hi_3 > beast_lo_3 ? (beast_hi_3 - beast_lo_3 + beast_step_3 - 1) / beast_step_3 : 0);
                                        while (beast_sl_3 < beast_sh_3) {
                                            const i64 beast_mid_3 = beast_sl_3 + (beast_sh_3 - beast_sl_3) / 2;
                                            const i64 blk_n = beast_lo_3 + beast_mid_3 * beast_step_3;
                                            if ((((thr_m * beast_div(blk_n, dim_n)) * 2) > 255)) beast_sh_3 = beast_mid_3; else beast_sl_3 = beast_mid_3 + 1;
                                        }
                                        beast_hi_3 = beast_lo_3 + beast_sl_3 * beast_step_3;
                                    }
                                    const i64 beast_skip_3 = beast_before_3 - (beast_hi_3 > beast_lo_3 ? (beast_hi_3 - beast_lo_3 + beast_step_3 - 1) / beast_step_3 : 0);
                                    if (beast_skip_3 > 0) { st->checks[1] += beast_skip_3; st->kills[1] += beast_skip_3; }
                                }
                                { /* narrow: over_max_regs_per_block (hard) */
                                    const i64 beast_before_3 = (beast_hi_3 > beast_lo_3 ? (beast_hi_3 - beast_lo_3 + beast_step_3 - 1) / beast_step_3 : 0);
                                    {
                                        i64 beast_sl_3 = 0, beast_sh_3 = (beast_hi_3 > beast_lo_3 ? (beast_hi_3 - beast_lo_3 + beast_step_3 - 1) / beast_step_3 : 0);
                                        while (beast_sl_3 < beast_sh_3) {
                                            const i64 beast_mid_3 = beast_sl_3 + (beast_sh_3 - beast_sl_3) / 2;
                                            const i64 blk_n = beast_lo_3 + beast_mid_3 * beast_step_3;
                                            if (((((thr_m * beast_div(blk_n, dim_n)) * 2) * threads_per_block) > 65536)) beast_sh_3 = beast_mid_3; else beast_sl_3 = beast_mid_3 + 1;
                                        }
                                        beast_hi_3 = beast_lo_3 + beast_sl_3 * beast_step_3;
                                    }
                                    const i64 beast_skip_3 = beast_before_3 - (beast_hi_3 > beast_lo_3 ? (beast_hi_3 - beast_lo_3 + beast_step_3 - 1) / beast_step_3 : 0);
                                    if (beast_skip_3 > 0) { st->checks[2] += beast_skip_3; st->kills[2] += beast_skip_3; }
                                }
                            }
                            for (i64 blk_n = beast_lo_3; beast_step_3 > 0 ? blk_n < beast_hi_3 : (beast_step_3 < 0 && blk_n > beast_hi_3); blk_n += beast_step_3) {
                                st->visits[3]++;
                                const i64 thr_n = beast_div(blk_n, dim_n);
                                const i64 beast_t0 = (thr_m * thr_n);
                                const i64 regs_per_thread = (beast_t0 * 2);
                                const i64 regs_per_block = (regs_per_thread * threads_per_block);
                                const i64 max_blocks_by_regs = beast_min(beast_div(65536, regs_per_block), 16);
                                const i64 max_threads_by_regs = (max_blocks_by_regs * threads_per_block);
                                st->checks[4]++; /* low_occupancy_regs (soft) */
                                if ((max_threads_by_regs < 256)) { st->kills[4]++; continue; }
                                const i64 beast_t1 = (blk_m + blk_n);
                                const i64 beast_t3 = (thr_m + thr_n);
                                {
                                    const i64 beast_step_4 = 1;
                                    i64 beast_lo_4 = 1, beast_hi_4 = (1025);
                                    { /* narrow: over_max_shmem (hard) */
                                        const i64 beast_before_4 = (beast_hi_4 > beast_lo_4 ? (beast_hi_4 - beast_lo_4 + beast_step_4 - 1) / beast_step_4 : 0);
                                        { const i64 beast_b_4 = (beast_div(6144, beast_t1) + 1); if (beast_b_4 < beast_hi_4) beast_hi_4 = beast_b_4; }
                                        const i64 beast_skip_4 = beast_before_4 - (beast_hi_4 > beast_lo_4 ? (beast_hi_4 - beast_lo_4 + beast_step_4 - 1) / beast_step_4 : 0);
                                        if (beast_skip_4 > 0) { st->checks[3] += beast_skip_4; st->kills[3] += beast_skip_4; }
                                    }
                                    { /* narrow: low_occupancy_shmem (soft) */
                                        const i64 beast_before_4 = (beast_hi_4 > beast_lo_4 ? (beast_hi_4 - beast_lo_4 + beast_step_4 - 1) / beast_step_4 : 0);
                                        {
                                            i64 beast_sl_4 = 0, beast_sh_4 = (beast_hi_4 > beast_lo_4 ? (beast_hi_4 - beast_lo_4 + beast_step_4 - 1) / beast_step_4 : 0);
                                            while (beast_sl_4 < beast_sh_4) {
                                                const i64 beast_mid_4 = beast_sl_4 + (beast_sh_4 - beast_sl_4) / 2;
                                                const i64 blk_k = beast_lo_4 + beast_mid_4 * beast_step_4;
                                                if (((beast_min(beast_div(49152, (((blk_k * (blk_m + blk_n)) * 4) * 2)), 16) * threads_per_block) < 256)) beast_sh_4 = beast_mid_4; else beast_sl_4 = beast_mid_4 + 1;
                                            }
                                            beast_hi_4 = beast_lo_4 + beast_sl_4 * beast_step_4;
                                        }
                                        const i64 beast_skip_4 = beast_before_4 - (beast_hi_4 > beast_lo_4 ? (beast_hi_4 - beast_lo_4 + beast_step_4 - 1) / beast_step_4 : 0);
                                        if (beast_skip_4 > 0) { st->checks[5] += beast_skip_4; st->kills[5] += beast_skip_4; }
                                    }
                                    for (i64 blk_k = beast_lo_4; blk_k < beast_hi_4; blk_k += beast_step_4) {
                                        st->visits[4]++;
                                        const i64 shmem_per_block = (((blk_k * beast_t1) * 4) * 2);
                                        const i64 max_blocks_by_shmem = beast_min(beast_div(49152, shmem_per_block), 16);
                                        const i64 max_threads_by_shmem = (max_blocks_by_shmem * threads_per_block);
                                        const i64 fmas_per_thread = (beast_t0 * blk_k);
                                        const i64 fmas_per_block = (fmas_per_thread * threads_per_block);
                                        const i64 beast_t2 = (beast_t3 * blk_k);
                                        for (i64 dim_vec = 1; dim_vec < (3); dim_vec += 1) {
                                            st->visits[5]++;
                                            const i64 loads_per_thread = beast_div(beast_t2, dim_vec);
                                            const i64 loads_per_block = (loads_per_thread * threads_per_block);
                                            st->checks[6]++; /* low_fmas (soft) */
                                            if ((beast_div(fmas_per_block, loads_per_block) < 2)) { st->kills[6]++; continue; }
                                            {
                                                const i64 beast_stop_6 = ((dim_vec == 1) ? 1 : 2), beast_step_6 = ((dim_vec == 1) ? 1 : 1);
                                                for (i64 vec_mul = ((dim_vec == 1) ? 0 : 0); beast_step_6 > 0 ? vec_mul < beast_stop_6 : (beast_step_6 < 0 && vec_mul > beast_stop_6); vec_mul += beast_step_6) {
                                                    st->visits[6]++;
                                                    for (i64 dim_m_a = 1; dim_m_a < ((beast_div(blk_m, dim_vec) + 1)); dim_m_a += 1) {
                                                        st->visits[7]++;
                                                        const i64 beast_t4 = (beast_mod(blk_m, (dim_m_a * dim_vec)) != 0);
                                                        {
                                                            const i64 beast_step_8 = 1;
                                                            i64 beast_lo_8 = 1, beast_hi_8 = ((blk_k + 1));
                                                            { /* narrow: cant_reshape_a1 (correctness) */
                                                                const i64 beast_before_8 = (beast_hi_8 > beast_lo_8 ? (beast_hi_8 - beast_lo_8 + beast_step_8 - 1) / beast_step_8 : 0);
                                                                { const i64 beast_b_8 = beast_div((threads_per_block + (dim_m_a - 1)), dim_m_a); if (beast_b_8 > beast_lo_8) beast_lo_8 += ((beast_b_8 - beast_lo_8 + beast_step_8 - 1) / beast_step_8) * beast_step_8; }
                                                                { const i64 beast_b_8 = (beast_div(threads_per_block, dim_m_a) + 1); if (beast_b_8 < beast_hi_8) beast_hi_8 = beast_b_8; }
                                                                const i64 beast_skip_8 = beast_before_8 - (beast_hi_8 > beast_lo_8 ? (beast_hi_8 - beast_lo_8 + beast_step_8 - 1) / beast_step_8 : 0);
                                                                if (beast_skip_8 > 0) { st->checks[8] += beast_skip_8; st->kills[8] += beast_skip_8; }
                                                            }
                                                            for (i64 dim_n_a = beast_lo_8; dim_n_a < beast_hi_8; dim_n_a += beast_step_8) {
                                                                st->visits[8]++;
                                                                st->checks[10]++; /* cant_reshape_a2 (correctness) */
                                                                if ((beast_t4 || (beast_mod(blk_k, dim_n_a) != 0))) { st->kills[10]++; continue; }
                                                                for (i64 dim_m_b = 1; dim_m_b < ((beast_div(blk_k, dim_vec) + 1)); dim_m_b += 1) {
                                                                    st->visits[9]++;
                                                                    const i64 beast_t5 = (beast_mod(blk_k, (dim_m_b * dim_vec)) != 0);
                                                                    {
                                                                        const i64 beast_step_10 = 1;
                                                                        i64 beast_lo_10 = 1, beast_hi_10 = ((blk_n + 1));
                                                                        { /* narrow: cant_reshape_b1 (correctness) */
                                                                            const i64 beast_before_10 = (beast_hi_10 > beast_lo_10 ? (beast_hi_10 - beast_lo_10 + beast_step_10 - 1) / beast_step_10 : 0);
                                                                            { const i64 beast_b_10 = beast_div((threads_per_block + (dim_m_b - 1)), dim_m_b); if (beast_b_10 > beast_lo_10) beast_lo_10 += ((beast_b_10 - beast_lo_10 + beast_step_10 - 1) / beast_step_10) * beast_step_10; }
                                                                            { const i64 beast_b_10 = (beast_div(threads_per_block, dim_m_b) + 1); if (beast_b_10 < beast_hi_10) beast_hi_10 = beast_b_10; }
                                                                            const i64 beast_skip_10 = beast_before_10 - (beast_hi_10 > beast_lo_10 ? (beast_hi_10 - beast_lo_10 + beast_step_10 - 1) / beast_step_10 : 0);
                                                                            if (beast_skip_10 > 0) { st->checks[9] += beast_skip_10; st->kills[9] += beast_skip_10; }
                                                                        }
                                                                        for (i64 dim_n_b = beast_lo_10; dim_n_b < beast_hi_10; dim_n_b += beast_step_10) {
                                                                            st->visits[10]++;
                                                                            st->checks[11]++; /* cant_reshape_b2 (correctness) */
                                                                            if ((beast_t5 || (beast_mod(blk_n, dim_n_b) != 0))) { st->kills[11]++; continue; }
                                                                            for (i64 tex_a = 0; tex_a < (2); tex_a += 1) {
                                                                                st->visits[11]++;
                                                                                for (i64 tex_b = 0; tex_b < (2); tex_b += 1) {
                                                                                    st->visits[12]++;
                                                                                    for (i64 shmem_l1 = 0; shmem_l1 < (2); shmem_l1 += 1) {
                                                                                        st->visits[13]++;
                                                                                        { /* chunked innermost loop (chunk=64) */
                                                                                            const i64 beast_step_14 = 1;
                                                                                            i64 beast_lo_14 = 0, beast_hi_14 = (2);
                                                                                            i64 beast_v_shmem_banks[64];
                                                                                            i64 beast_cur_14 = beast_lo_14;
                                                                                            while (beast_cur_14 < beast_hi_14) {
                                                                                                int beast_k = 0;
                                                                                                for (; beast_k < 64 && (beast_cur_14 < beast_hi_14); beast_k++) { beast_v_shmem_banks[beast_k] = beast_cur_14; beast_cur_14 += beast_step_14; }
                                                                                                st->visits[14] += beast_k;
                                                                                                uint64_t beast_mask = beast_k == 64 ? ~(uint64_t)0 : (((uint64_t)1 << beast_k) - 1);
                                                                                                i64 beast_live = beast_k;
                                                                                                (void)beast_live;
                                                                                                for (int beast_i = 0; beast_i < beast_k; beast_i++) {
                                                                                                    if (!((beast_mask >> beast_i) & 1)) continue;
                                                                                                    st->survivors++;
                                                                                                    if (on_tuple) { const i64 beast_tuple[] = {dim_m, dim_n, blk_m, blk_n, blk_k, dim_vec, vec_mul, dim_m_a, dim_n_a, dim_m_b, dim_n_b, tex_a, tex_b, shmem_l1, beast_v_shmem_banks[beast_i]}; on_tuple(beast_tuple, 15, ctx); }
                                                                                                }
                                                                                            }
                                                                                        }
                                                                                    }
                                                                                }
                                                                            }
                                                                        }
                                                                    }
                                                                }
                                                            }
                                                        }
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

typedef struct {
    beast_stats stats;
    beast_on_tuple on_tuple;
    void *ctx;
    int tid, nthreads;
} beast_mt_arg;

static void *beast_mt_trampoline(void *p) {
    beast_mt_arg *a = (beast_mt_arg *)p;
    beast_enumerate_worker(&a->stats, a->on_tuple, a->ctx, a->tid, a->nthreads);
    return NULL;
}

void beast_enumerate_mt(beast_stats *st, beast_on_tuple on_tuple, void *ctx, int nthreads) {
    if (nthreads < 1) nthreads = 1;
    beast_mt_arg *args = (beast_mt_arg *)calloc((size_t)nthreads, sizeof(beast_mt_arg));
    pthread_t *tids = (pthread_t *)calloc((size_t)nthreads, sizeof(pthread_t));
    for (int t = 0; t < nthreads; t++) {
        args[t].on_tuple = on_tuple; args[t].ctx = ctx;
        args[t].tid = t; args[t].nthreads = nthreads;
        pthread_create(&tids[t], NULL, beast_mt_trampoline, &args[t]);
    }
    for (int t = 0; t < nthreads; t++) {
        pthread_join(tids[t], NULL);
        for (int i = 0; i < 15; i++) st->visits[i] += args[t].stats.visits[i];
        for (int i = 0; i < 12; i++) {
            st->checks[i] += args[t].stats.checks[i];
            st->kills[i] += args[t].stats.kills[i];
        }
        st->survivors += args[t].stats.survivors;
    }
    free(args); free(tids);
}

int main(int argc, char **argv) {
    beast_stats st;
    memset(&st, 0, sizeof st);
    int nthreads = argc > 1 ? atoi(argv[1]) : 1;
    if (nthreads > 1) beast_enumerate_mt(&st, NULL, NULL, nthreads);
    else beast_enumerate(&st, NULL, NULL);
    printf("survivors %lld\n", (long long)st.survivors);
    i64 visits = 0;
    for (int i = 0; i < 15; i++) visits += st.visits[i];
    printf("visits %lld\n", (long long)visits);
    printf("kill over_max_threads %lld\n", (long long)st.kills[0]);
    printf("kill over_max_regs_per_thread %lld\n", (long long)st.kills[1]);
    printf("kill over_max_regs_per_block %lld\n", (long long)st.kills[2]);
    printf("kill over_max_shmem %lld\n", (long long)st.kills[3]);
    printf("kill low_occupancy_regs %lld\n", (long long)st.kills[4]);
    printf("kill low_occupancy_shmem %lld\n", (long long)st.kills[5]);
    printf("kill low_fmas %lld\n", (long long)st.kills[6]);
    printf("kill partial_warps %lld\n", (long long)st.kills[7]);
    printf("kill cant_reshape_a1 %lld\n", (long long)st.kills[8]);
    printf("kill cant_reshape_b1 %lld\n", (long long)st.kills[9]);
    printf("kill cant_reshape_a2 %lld\n", (long long)st.kills[10]);
    printf("kill cant_reshape_b2 %lld\n", (long long)st.kills[11]);
    return 0;
}
