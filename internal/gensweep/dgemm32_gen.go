// Code generated by the BEAST search-space translator. DO NOT EDIT.
//
// DGEMM nn on Tesla K40c at 1/32 thread-dim scale, min occupancy 64 threads, chunk 64.
//
// Loop nest order: dim_m, dim_n, blk_m, blk_n, blk_k, dim_vec, vec_mul, dim_m_a, dim_n_a, dim_m_b, dim_n_b, tex_a, tex_b, shmem_l1, shmem_banks
// Tuple emission order: dim_m, dim_n, blk_m, blk_n, blk_k, dim_vec, vec_mul, dim_m_a, dim_n_a, dim_m_b, dim_n_b, tex_a, tex_b, shmem_l1, shmem_banks

package gensweep

// DGEMM32Stats mirrors engine.Stats for the generated sweep.
type DGEMM32Stats struct {
	Visits    [15]int64
	Checks    [12]int64
	Kills     [12]int64
	Survivors int64
}

// beast_div and beast_mod are Python floor division and modulo, total on
// zero divisors.
func beast_div(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func beast_mod(a, b int64) int64 {
	if b == 0 {
		return 0
	}
	r := a % b
	if r != 0 && (r < 0) != (b < 0) {
		r += b
	}
	return r
}

func beast_min(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func beast_max(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func beast_abs(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

func beast_bool(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// beast_popcount counts set bits (SWAR), sized for the chunked inner
// loop's 64-lane survivor mask.
func beast_popcount(x uint64) int64 {
	x -= (x >> 1) & 0x5555555555555555
	x = (x & 0x3333333333333333) + ((x >> 2) & 0x3333333333333333)
	x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0f
	return int64((x * 0x0101010101010101) >> 56)
}

// DGEMM32 runs the generated sweep. onTuple may be nil; returning false
// stops enumeration early.
func DGEMM32(onTuple func(vals []int64) bool) DGEMM32Stats {
	var st DGEMM32Stats
	trans_a := int64(0)
	_ = trans_a
	trans_b := int64(0)
	_ = trans_b
	max_threads_per_block := int64(1024)
	_ = max_threads_per_block
	max_threads_dim_x := int64(32)
	_ = max_threads_dim_x
	max_threads_dim_y := int64(32)
	_ = max_threads_dim_y
	max_shared_mem_per_block := int64(49152)
	_ = max_shared_mem_per_block
	warp_size := int64(32)
	_ = warp_size
	max_regs_per_block := int64(65536)
	_ = max_regs_per_block
	max_threads_per_multi_processor := int64(2048)
	_ = max_threads_per_multi_processor
	cudamajor := int64(3)
	_ = cudamajor
	cudaminor := int64(5)
	_ = cudaminor
	max_registers_per_multi_processor := int64(65536)
	_ = max_registers_per_multi_processor
	max_shmem_per_multi_processor := int64(49152)
	_ = max_shmem_per_multi_processor
	float_size := int64(4)
	_ = float_size
	min_threads_per_multi_processor := int64(64)
	_ = min_threads_per_multi_processor
	min_fmas_per_load := int64(2)
	_ = min_fmas_per_load

	for dim_m := int64(1); dim_m < (33); dim_m += 1 {
		st.Visits[0]++
		{
			beast_step_1 := int64(1)
			_ = beast_step_1
			beast_lo_1, beast_hi_1 := int64(1), int64((33))
			{ /* narrow: over_max_threads (hard) */
				beast_before_1 := int64((func() int64 {
					if beast_hi_1 > beast_lo_1 {
						return (beast_hi_1 - beast_lo_1 + beast_step_1 - 1) / beast_step_1
					}
					return 0
				}()))
				_ = beast_before_1
				{
					beast_b_1 := int64((beast_div(1024, dim_m) + 1))
					_ = beast_b_1
					if beast_b_1 < beast_hi_1 {
						beast_hi_1 = beast_b_1
					}
				}
				beast_skip_1 := int64(beast_before_1 - (func() int64 {
					if beast_hi_1 > beast_lo_1 {
						return (beast_hi_1 - beast_lo_1 + beast_step_1 - 1) / beast_step_1
					}
					return 0
				}()))
				_ = beast_skip_1
				if beast_skip_1 > 0 {
					st.Checks[0] += beast_skip_1
					st.Kills[0] += beast_skip_1
				}
			}
			for dim_n := int64(beast_lo_1); dim_n < beast_hi_1; dim_n += beast_step_1 {
				st.Visits[1]++
				threads_per_block := int64((dim_m * dim_n))
				_ = threads_per_block
				st.Checks[7]++ /* partial_warps (soft) */
				if beast_bool((beast_mod(threads_per_block, 32) != 0)) != 0 {
					st.Kills[7]++
					continue
				}
				{
					beast_stop_2, beast_step_2 := int64(33), int64(dim_m)
					_ = beast_stop_2
					_ = beast_step_2
					for blk_m := int64(dim_m); (beast_step_2 > 0 && blk_m < beast_stop_2) || (!(beast_step_2 > 0) && (beast_step_2 < 0 && blk_m > beast_stop_2)); blk_m += beast_step_2 {
						st.Visits[2]++
						thr_m := int64(beast_div(blk_m, dim_m))
						_ = thr_m
						{
							beast_step_3 := int64(dim_n)
							_ = beast_step_3
							beast_lo_3, beast_hi_3 := int64(dim_n), int64((33))
							if beast_step_3 > 0 {
								{ /* narrow: over_max_regs_per_thread (hard) */
									beast_before_3 := int64((func() int64 {
										if beast_hi_3 > beast_lo_3 {
											return (beast_hi_3 - beast_lo_3 + beast_step_3 - 1) / beast_step_3
										}
										return 0
									}()))
									_ = beast_before_3
									{
										beast_sl_3, beast_sh_3 := int64(0), int64((func() int64 {
											if beast_hi_3 > beast_lo_3 {
												return (beast_hi_3 - beast_lo_3 + beast_step_3 - 1) / beast_step_3
											}
											return 0
										}()))
										for beast_sl_3 < beast_sh_3 {
											beast_mid_3 := int64(beast_sl_3 + (beast_sh_3-beast_sl_3)/2)
											_ = beast_mid_3
											blk_n := int64(beast_lo_3 + beast_mid_3*beast_step_3)
											_ = blk_n
											if beast_bool((((thr_m * beast_div(blk_n, dim_n)) * 2) > 255)) != 0 {
												beast_sh_3 = beast_mid_3
											} else {
												beast_sl_3 = beast_mid_3 + 1
											}
										}
										beast_hi_3 = beast_lo_3 + beast_sl_3*beast_step_3
									}
									beast_skip_3 := int64(beast_before_3 - (func() int64 {
										if beast_hi_3 > beast_lo_3 {
											return (beast_hi_3 - beast_lo_3 + beast_step_3 - 1) / beast_step_3
										}
										return 0
									}()))
									_ = beast_skip_3
									if beast_skip_3 > 0 {
										st.Checks[1] += beast_skip_3
										st.Kills[1] += beast_skip_3
									}
								}
								{ /* narrow: over_max_regs_per_block (hard) */
									beast_before_3 := int64((func() int64 {
										if beast_hi_3 > beast_lo_3 {
											return (beast_hi_3 - beast_lo_3 + beast_step_3 - 1) / beast_step_3
										}
										return 0
									}()))
									_ = beast_before_3
									{
										beast_sl_3, beast_sh_3 := int64(0), int64((func() int64 {
											if beast_hi_3 > beast_lo_3 {
												return (beast_hi_3 - beast_lo_3 + beast_step_3 - 1) / beast_step_3
											}
											return 0
										}()))
										for beast_sl_3 < beast_sh_3 {
											beast_mid_3 := int64(beast_sl_3 + (beast_sh_3-beast_sl_3)/2)
											_ = beast_mid_3
											blk_n := int64(beast_lo_3 + beast_mid_3*beast_step_3)
											_ = blk_n
											if beast_bool(((((thr_m * beast_div(blk_n, dim_n)) * 2) * threads_per_block) > 65536)) != 0 {
												beast_sh_3 = beast_mid_3
											} else {
												beast_sl_3 = beast_mid_3 + 1
											}
										}
										beast_hi_3 = beast_lo_3 + beast_sl_3*beast_step_3
									}
									beast_skip_3 := int64(beast_before_3 - (func() int64 {
										if beast_hi_3 > beast_lo_3 {
											return (beast_hi_3 - beast_lo_3 + beast_step_3 - 1) / beast_step_3
										}
										return 0
									}()))
									_ = beast_skip_3
									if beast_skip_3 > 0 {
										st.Checks[2] += beast_skip_3
										st.Kills[2] += beast_skip_3
									}
								}
							}
							for blk_n := int64(beast_lo_3); (beast_step_3 > 0 && blk_n < beast_hi_3) || (!(beast_step_3 > 0) && (beast_step_3 < 0 && blk_n > beast_hi_3)); blk_n += beast_step_3 {
								st.Visits[3]++
								thr_n := int64(beast_div(blk_n, dim_n))
								_ = thr_n
								beast_t0 := int64((thr_m * thr_n))
								_ = beast_t0
								regs_per_thread := int64((beast_t0 * 2))
								_ = regs_per_thread
								regs_per_block := int64((regs_per_thread * threads_per_block))
								_ = regs_per_block
								max_blocks_by_regs := int64(beast_min(beast_div(65536, regs_per_block), 16))
								_ = max_blocks_by_regs
								max_threads_by_regs := int64((max_blocks_by_regs * threads_per_block))
								_ = max_threads_by_regs
								st.Checks[4]++ /* low_occupancy_regs (soft) */
								if beast_bool((max_threads_by_regs < 64)) != 0 {
									st.Kills[4]++
									continue
								}
								beast_t1 := int64((blk_m + blk_n))
								_ = beast_t1
								beast_t3 := int64((thr_m + thr_n))
								_ = beast_t3
								{
									beast_step_4 := int64(1)
									_ = beast_step_4
									beast_lo_4, beast_hi_4 := int64(1), int64((33))
									{ /* narrow: over_max_shmem (hard) */
										beast_before_4 := int64((func() int64 {
											if beast_hi_4 > beast_lo_4 {
												return (beast_hi_4 - beast_lo_4 + beast_step_4 - 1) / beast_step_4
											}
											return 0
										}()))
										_ = beast_before_4
										{
											beast_b_4 := int64((beast_div(6144, beast_t1) + 1))
											_ = beast_b_4
											if beast_b_4 < beast_hi_4 {
												beast_hi_4 = beast_b_4
											}
										}
										beast_skip_4 := int64(beast_before_4 - (func() int64 {
											if beast_hi_4 > beast_lo_4 {
												return (beast_hi_4 - beast_lo_4 + beast_step_4 - 1) / beast_step_4
											}
											return 0
										}()))
										_ = beast_skip_4
										if beast_skip_4 > 0 {
											st.Checks[3] += beast_skip_4
											st.Kills[3] += beast_skip_4
										}
									}
									{ /* narrow: low_occupancy_shmem (soft) */
										beast_before_4 := int64((func() int64 {
											if beast_hi_4 > beast_lo_4 {
												return (beast_hi_4 - beast_lo_4 + beast_step_4 - 1) / beast_step_4
											}
											return 0
										}()))
										_ = beast_before_4
										{
											beast_sl_4, beast_sh_4 := int64(0), int64((func() int64 {
												if beast_hi_4 > beast_lo_4 {
													return (beast_hi_4 - beast_lo_4 + beast_step_4 - 1) / beast_step_4
												}
												return 0
											}()))
											for beast_sl_4 < beast_sh_4 {
												beast_mid_4 := int64(beast_sl_4 + (beast_sh_4-beast_sl_4)/2)
												_ = beast_mid_4
												blk_k := int64(beast_lo_4 + beast_mid_4*beast_step_4)
												_ = blk_k
												if beast_bool(((beast_min(beast_div(49152, (((blk_k*(blk_m+blk_n))*4)*2)), 16) * threads_per_block) < 64)) != 0 {
													beast_sh_4 = beast_mid_4
												} else {
													beast_sl_4 = beast_mid_4 + 1
												}
											}
											beast_hi_4 = beast_lo_4 + beast_sl_4*beast_step_4
										}
										beast_skip_4 := int64(beast_before_4 - (func() int64 {
											if beast_hi_4 > beast_lo_4 {
												return (beast_hi_4 - beast_lo_4 + beast_step_4 - 1) / beast_step_4
											}
											return 0
										}()))
										_ = beast_skip_4
										if beast_skip_4 > 0 {
											st.Checks[5] += beast_skip_4
											st.Kills[5] += beast_skip_4
										}
									}
									for blk_k := int64(beast_lo_4); blk_k < beast_hi_4; blk_k += beast_step_4 {
										st.Visits[4]++
										shmem_per_block := int64((((blk_k * beast_t1) * 4) * 2))
										_ = shmem_per_block
										max_blocks_by_shmem := int64(beast_min(beast_div(49152, shmem_per_block), 16))
										_ = max_blocks_by_shmem
										max_threads_by_shmem := int64((max_blocks_by_shmem * threads_per_block))
										_ = max_threads_by_shmem
										fmas_per_thread := int64((beast_t0 * blk_k))
										_ = fmas_per_thread
										fmas_per_block := int64((fmas_per_thread * threads_per_block))
										_ = fmas_per_block
										beast_t2 := int64((beast_t3 * blk_k))
										_ = beast_t2
										for dim_vec := int64(1); dim_vec < (3); dim_vec += 1 {
											st.Visits[5]++
											loads_per_thread := int64(beast_div(beast_t2, dim_vec))
											_ = loads_per_thread
											loads_per_block := int64((loads_per_thread * threads_per_block))
											_ = loads_per_block
											st.Checks[6]++ /* low_fmas (soft) */
											if beast_bool((beast_div(fmas_per_block, loads_per_block) < 2)) != 0 {
												st.Kills[6]++
												continue
											}
											{
												beast_stop_6, beast_step_6 := int64((func() int64 {
													if beast_bool((dim_vec == 1)) != 0 {
														return 1
													}
													return 2
												}())), int64((func() int64 {
													if beast_bool((dim_vec == 1)) != 0 {
														return 1
													}
													return 1
												}()))
												_ = beast_stop_6
												_ = beast_step_6
												for vec_mul := int64((func() int64 {
													if beast_bool((dim_vec == 1)) != 0 {
														return 0
													}
													return 0
												}())); (beast_step_6 > 0 && vec_mul < beast_stop_6) || (!(beast_step_6 > 0) && (beast_step_6 < 0 && vec_mul > beast_stop_6)); vec_mul += beast_step_6 {
													st.Visits[6]++
													for dim_m_a := int64(1); dim_m_a < (beast_div(blk_m, dim_vec) + 1); dim_m_a += 1 {
														st.Visits[7]++
														beast_t4 := int64(beast_bool((beast_mod(blk_m, (dim_m_a*dim_vec)) != 0)))
														_ = beast_t4
														{
															beast_step_8 := int64(1)
															_ = beast_step_8
															beast_lo_8, beast_hi_8 := int64(1), int64((blk_k + 1))
															{ /* narrow: cant_reshape_a1 (correctness) */
																beast_before_8 := int64((func() int64 {
																	if beast_hi_8 > beast_lo_8 {
																		return (beast_hi_8 - beast_lo_8 + beast_step_8 - 1) / beast_step_8
																	}
																	return 0
																}()))
																_ = beast_before_8
																{
																	beast_b_8 := int64(beast_div((threads_per_block + (dim_m_a - 1)), dim_m_a))
																	_ = beast_b_8
																	if beast_b_8 > beast_lo_8 {
																		beast_lo_8 += ((beast_b_8 - beast_lo_8 + beast_step_8 - 1) / beast_step_8) * beast_step_8
																	}
																}
																{
																	beast_b_8 := int64((beast_div(threads_per_block, dim_m_a) + 1))
																	_ = beast_b_8
																	if beast_b_8 < beast_hi_8 {
																		beast_hi_8 = beast_b_8
																	}
																}
																beast_skip_8 := int64(beast_before_8 - (func() int64 {
																	if beast_hi_8 > beast_lo_8 {
																		return (beast_hi_8 - beast_lo_8 + beast_step_8 - 1) / beast_step_8
																	}
																	return 0
																}()))
																_ = beast_skip_8
																if beast_skip_8 > 0 {
																	st.Checks[8] += beast_skip_8
																	st.Kills[8] += beast_skip_8
																}
															}
															for dim_n_a := int64(beast_lo_8); dim_n_a < beast_hi_8; dim_n_a += beast_step_8 {
																st.Visits[8]++
																st.Checks[10]++ /* cant_reshape_a2 (correctness) */
																if beast_bool((beast_t4 != 0 || beast_bool((beast_mod(blk_k, dim_n_a) != 0)) != 0)) != 0 {
																	st.Kills[10]++
																	continue
																}
																for dim_m_b := int64(1); dim_m_b < (beast_div(blk_k, dim_vec) + 1); dim_m_b += 1 {
																	st.Visits[9]++
																	beast_t5 := int64(beast_bool((beast_mod(blk_k, (dim_m_b*dim_vec)) != 0)))
																	_ = beast_t5
																	{
																		beast_step_10 := int64(1)
																		_ = beast_step_10
																		beast_lo_10, beast_hi_10 := int64(1), int64((blk_n + 1))
																		{ /* narrow: cant_reshape_b1 (correctness) */
																			beast_before_10 := int64((func() int64 {
																				if beast_hi_10 > beast_lo_10 {
																					return (beast_hi_10 - beast_lo_10 + beast_step_10 - 1) / beast_step_10
																				}
																				return 0
																			}()))
																			_ = beast_before_10
																			{
																				beast_b_10 := int64(beast_div((threads_per_block + (dim_m_b - 1)), dim_m_b))
																				_ = beast_b_10
																				if beast_b_10 > beast_lo_10 {
																					beast_lo_10 += ((beast_b_10 - beast_lo_10 + beast_step_10 - 1) / beast_step_10) * beast_step_10
																				}
																			}
																			{
																				beast_b_10 := int64((beast_div(threads_per_block, dim_m_b) + 1))
																				_ = beast_b_10
																				if beast_b_10 < beast_hi_10 {
																					beast_hi_10 = beast_b_10
																				}
																			}
																			beast_skip_10 := int64(beast_before_10 - (func() int64 {
																				if beast_hi_10 > beast_lo_10 {
																					return (beast_hi_10 - beast_lo_10 + beast_step_10 - 1) / beast_step_10
																				}
																				return 0
																			}()))
																			_ = beast_skip_10
																			if beast_skip_10 > 0 {
																				st.Checks[9] += beast_skip_10
																				st.Kills[9] += beast_skip_10
																			}
																		}
																		for dim_n_b := int64(beast_lo_10); dim_n_b < beast_hi_10; dim_n_b += beast_step_10 {
																			st.Visits[10]++
																			st.Checks[11]++ /* cant_reshape_b2 (correctness) */
																			if beast_bool((beast_t5 != 0 || beast_bool((beast_mod(blk_n, dim_n_b) != 0)) != 0)) != 0 {
																				st.Kills[11]++
																				continue
																			}
																			for tex_a := int64(0); tex_a < (2); tex_a += 1 {
																				st.Visits[11]++
																				for tex_b := int64(0); tex_b < (2); tex_b += 1 {
																					st.Visits[12]++
																					for shmem_l1 := int64(0); shmem_l1 < (2); shmem_l1 += 1 {
																						st.Visits[13]++
																						{ /* chunked innermost loop (chunk=64) */
																							beast_step_14 := int64(1)
																							_ = beast_step_14
																							beast_lo_14, beast_hi_14 := int64(0), int64((2))
																							var beast_v_shmem_banks [64]int64
																							beast_cur_14 := int64(beast_lo_14)
																							for beast_cur_14 < beast_hi_14 {
																								beast_k := int64(0)
																								for ; beast_k < 64 && (beast_cur_14 < beast_hi_14); beast_k++ {
																									beast_v_shmem_banks[beast_k] = beast_cur_14
																									beast_cur_14 += beast_step_14
																								}
																								st.Visits[14] += beast_k
																								beast_mask := uint64(func() uint64 {
																									if beast_k == 64 {
																										return ^uint64(0)
																									}
																									return ((uint64(1) << beast_k) - 1)
																								}())
																								beast_live := int64(beast_k)
																								_ = beast_live
																								for beast_i := int64(0); beast_i < beast_k; beast_i++ {
																									if ((beast_mask >> beast_i) & 1) == 0 {
																										continue
																									}
																									st.Survivors++
																									if onTuple != nil && !onTuple([]int64{dim_m, dim_n, blk_m, blk_n, blk_k, dim_vec, vec_mul, dim_m_a, dim_n_a, dim_m_b, dim_n_b, tex_a, tex_b, shmem_l1, beast_v_shmem_banks[beast_i]}) {
																										return st
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
	return st
}
