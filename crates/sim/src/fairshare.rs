//! Max-min fair rate allocation by progressive filling (waterfilling).
//!
//! Given a set of *flows* (running ops) with per-flow weights, optional
//! intrinsic rate caps, and demand vectors over fluid resources, compute
//! the weighted max-min fair rate vector:
//!
//! * every flow `i` receives rate `ρ_i = min(θ_i · w_i, cap_i)` where
//!   `θ_i` is the filling level at which the flow froze;
//! * a flow freezes either by hitting its cap or because one of its
//!   resources saturated;
//! * the allocation is feasible (`Σ ρ_i · d_ir ≤ cap_r` for all `r`) and
//!   Pareto-efficient on every resource that constrains someone.
//!
//! This models how concurrent DMA transfers share a PCIe direction, how
//! staging `memcpy`s and merges share the host memory bus, and how
//! oversubscribed threads share cores (processor sharing), all with one
//! mechanism.
//!
//! Complexity: O(F·(F+R)) per solve in the worst case (each round freezes
//! at least one flow); F and R are small at any instant in the sorting
//! pipelines (about three running ops per event at the paper's largest
//! plan, five fluids). The engine solves once per event — every latency
//! expiry and every completion, including those that change no rate —
//! with the running ops in ascending op-id order; the rates depend on
//! that order only in their last bits, which is why the engine fixes it.
//!
//! One routine does the filling: `Waterfill::solve`, over working
//! vectors the caller keeps. The engine holds one `Waterfill` for the
//! whole run, so a solve allocates nothing once the widest running set
//! has been seen; [`max_min_rates`] is the allocating wrapper, a fresh
//! `Waterfill` per call. Both run the same arithmetic in the same order,
//! so their rates are bit-identical.

use crate::error::SimError;

/// One flow (running op) presented to the solver.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Fair-share weight; rising flows receive rate `θ·weight`.
    pub weight: f64,
    /// Intrinsic peak rate (work-units/s); `None` = unbounded by itself.
    pub cap: Option<f64>,
    /// `(resource index, demand)` pairs: resource-units per work-unit.
    /// Demands must be ≥ 0; zero-demand entries are ignored.
    pub demands: Vec<(usize, f64)>,
}

impl Flow {
    /// Convenience constructor for a flow with a single demand.
    pub fn single(weight: f64, cap: Option<f64>, resource: usize, demand: f64) -> Self {
        Flow {
            weight,
            cap,
            demands: vec![(resource, demand)],
        }
    }
}

/// Relative tolerance for grouping simultaneous freezing events.
const REL_EPS: f64 = 1e-9;

/// Compute weighted max-min fair rates.
///
/// `capacities[r]` is the capacity of fluid resource `r` in
/// resource-units/second. Returns one rate per flow. The engine solves
/// through a `Waterfill` it keeps across events; this wrapper builds
/// a fresh one per call.
///
/// # Errors
///
/// [`SimError::UnboundedFlow`] if a flow has no cap and no positive
/// demand on any positive-capacity resource (its rate would be infinite).
/// [`SimError::InvalidNumber`] for non-finite or negative inputs.
pub fn max_min_rates(flows: &[Flow], capacities: &[f64]) -> Result<Vec<f64>, SimError> {
    let mut fill = Waterfill::default();
    fill.solve(flows, capacities)?;
    Ok(fill.rate)
}

/// The waterfilling solver's working state, owned by the caller so
/// that repeated solves reuse its vectors: after the widest solve, a
/// solve allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct Waterfill {
    /// Per flow: the rate, final once `frozen`.
    rate: Vec<f64>,
    frozen: Vec<bool>,
    /// Per resource: capacity left after the frozen flows' usage.
    remaining: Vec<f64>,
    saturated: Vec<bool>,
    /// The flows not yet frozen in the current round.
    rising: Vec<usize>,
}

impl Waterfill {
    /// [`max_min_rates`] into this scratch; returns one rate per flow.
    ///
    /// # Errors
    ///
    /// As [`max_min_rates`].
    pub(crate) fn solve(&mut self, flows: &[Flow], capacities: &[f64]) -> Result<&[f64], SimError> {
        validate(flows, capacities)?;
        let nf = flows.len();
        let nr = capacities.len();
        let Waterfill {
            rate,
            frozen,
            remaining,
            saturated,
            rising,
        } = self;

        rate.clear();
        rate.resize(nf, 0.0);
        frozen.clear();
        frozen.resize(nf, false);
        remaining.clear();
        remaining.extend_from_slice(capacities);
        saturated.clear();
        saturated.resize(nr, false);

        // Flows whose rate is structurally zero: weight 0 (they never rise).
        for (i, f) in flows.iter().enumerate() {
            if f.weight == 0.0 {
                frozen[i] = true; // rate stays 0
            }
        }

        let mut theta;
        loop {
            rising.clear();
            rising.extend((0..nf).filter(|&i| !frozen[i]));
            if rising.is_empty() {
                break;
            }

            // Candidate 1: a rising flow hits its cap at θ = cap/weight.
            let mut next_theta = f64::INFINITY;
            for &i in rising.iter() {
                if let Some(cap) = flows[i].cap {
                    let t = cap / flows[i].weight;
                    if t < next_theta {
                        next_theta = t;
                    }
                }
            }

            // Candidate 2: a resource saturates. Rising flows currently use
            // θ·w_i·d_ir on r, linear in θ with slope Σ w_i·d_ir.
            for r in 0..nr {
                if saturated[r] {
                    continue;
                }
                let slope: f64 = rising
                    .iter()
                    .map(|&i| {
                        flows[i]
                            .demands
                            .iter()
                            .filter(|&&(res, d)| res == r && d > 0.0)
                            .map(|&(_, d)| flows[i].weight * d)
                            .sum::<f64>()
                    })
                    .sum();
                if slope > 0.0 {
                    let t = remaining[r] / slope;
                    if t < next_theta {
                        next_theta = t;
                    }
                }
            }

            if !next_theta.is_finite() {
                // Some rising flow is unbounded: no cap and no demand on a
                // saturable resource.
                let culprit = rising
                    .iter()
                    .copied()
                    .find(|&i| {
                        flows[i].cap.is_none()
                            && flows[i]
                                .demands
                                .iter()
                                .all(|&(r, d)| d <= 0.0 || saturated[r] || capacities[r] <= 0.0)
                    })
                    .unwrap_or(rising[0]);
                return Err(SimError::UnboundedFlow(culprit));
            }

            theta = next_theta;
            let tol = REL_EPS * theta.max(1.0);

            // Freeze every rising flow that hit its cap at this θ.
            let mut froze_any = false;
            for &i in rising.iter() {
                if let Some(cap) = flows[i].cap {
                    if cap / flows[i].weight <= theta + tol {
                        rate[i] = cap;
                        frozen[i] = true;
                        froze_any = true;
                    }
                }
            }

            // Saturate every resource that fills at this θ, freezing its
            // remaining rising demanders at θ·w.
            for r in 0..nr {
                if saturated[r] {
                    continue;
                }
                let has_rising_demander = (0..nf).any(|i| {
                    !frozen[i] && flows[i].demands.iter().any(|&(res, d)| res == r && d > 0.0)
                });
                if !has_rising_demander {
                    continue;
                }
                let usage: f64 = (0..nf)
                    .filter(|&i| !frozen[i])
                    .map(|i| {
                        theta
                            * flows[i].weight
                            * flows[i]
                                .demands
                                .iter()
                                .filter(|&&(res, _)| res == r)
                                .map(|&(_, d)| d)
                                .sum::<f64>()
                    })
                    .sum();
                let eps = REL_EPS * capacities[r].max(1.0);
                if remaining[r] <= eps || usage >= remaining[r] - eps {
                    saturated[r] = true;
                    for i in 0..nf {
                        if !frozen[i]
                            && flows[i].demands.iter().any(|&(res, d)| res == r && d > 0.0)
                        {
                            rate[i] = theta * flows[i].weight;
                            frozen[i] = true;
                            froze_any = true;
                        }
                    }
                }
            }

            debug_assert!(froze_any, "waterfilling made no progress at θ={theta}");
            if !froze_any {
                // Defensive: freeze everything at current θ to avoid a hang.
                for &i in rising.iter() {
                    rate[i] = theta * flows[i].weight;
                    frozen[i] = true;
                }
            }

            // Subtract newly frozen usage from remaining capacities.
            remaining.copy_from_slice(capacities);
            for (i, f) in flows.iter().enumerate() {
                if frozen[i] && rate[i] > 0.0 {
                    for &(r, d) in &f.demands {
                        remaining[r] -= rate[i] * d;
                    }
                }
            }
            for r in remaining.iter_mut() {
                if *r < 0.0 {
                    *r = 0.0;
                }
            }
        }

        Ok(rate)
    }
}

fn validate(flows: &[Flow], capacities: &[f64]) -> Result<(), SimError> {
    for (r, &c) in capacities.iter().enumerate() {
        if !c.is_finite() || c < 0.0 {
            return Err(SimError::InvalidNumber {
                context: format!("fluid capacity {r}"),
                value: c,
            });
        }
    }
    for (i, f) in flows.iter().enumerate() {
        if !f.weight.is_finite() || f.weight < 0.0 {
            return Err(SimError::InvalidNumber {
                context: format!("flow {i} weight"),
                value: f.weight,
            });
        }
        if let Some(c) = f.cap {
            if !c.is_finite() || c < 0.0 {
                return Err(SimError::InvalidNumber {
                    context: format!("flow {i} cap"),
                    value: c,
                });
            }
        }
        for &(r, d) in &f.demands {
            if !d.is_finite() || d < 0.0 {
                return Err(SimError::InvalidNumber {
                    context: format!("flow {i} demand on resource {r}"),
                    value: d,
                });
            }
            if r >= capacities.len() {
                return Err(SimError::UnboundedFlow(i));
            }
        }
        if f.weight > 0.0 && f.cap.is_none() && f.demands.iter().all(|&(_, d)| d <= 0.0) {
            return Err(SimError::UnboundedFlow(i));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!(
            (a - b).abs() <= 1e-6 * b.abs().max(1.0),
            "expected {b}, got {a}"
        );
    }

    #[test]
    fn single_flow_takes_whole_resource() {
        let flows = [Flow::single(1.0, None, 0, 1.0)];
        let r = max_min_rates(&flows, &[12e9]).unwrap();
        assert_close(r[0], 12e9);
    }

    #[test]
    fn single_flow_respects_cap() {
        let flows = [Flow::single(1.0, Some(5e9), 0, 1.0)];
        let r = max_min_rates(&flows, &[12e9]).unwrap();
        assert_close(r[0], 5e9);
    }

    #[test]
    fn two_equal_flows_split_evenly() {
        let flows = [
            Flow::single(1.0, None, 0, 1.0),
            Flow::single(1.0, None, 0, 1.0),
        ];
        let r = max_min_rates(&flows, &[10.0]).unwrap();
        assert_close(r[0], 5.0);
        assert_close(r[1], 5.0);
    }

    #[test]
    fn weights_bias_the_split() {
        let flows = [
            Flow::single(3.0, None, 0, 1.0),
            Flow::single(1.0, None, 0, 1.0),
        ];
        let r = max_min_rates(&flows, &[8.0]).unwrap();
        assert_close(r[0], 6.0);
        assert_close(r[1], 2.0);
    }

    #[test]
    fn capped_flow_leaves_slack_to_others() {
        // Flow 0 caps at 2, so flow 1 picks up the remaining 8.
        let flows = [
            Flow::single(1.0, Some(2.0), 0, 1.0),
            Flow::single(1.0, None, 0, 1.0),
        ];
        let r = max_min_rates(&flows, &[10.0]).unwrap();
        assert_close(r[0], 2.0);
        assert_close(r[1], 8.0);
    }

    #[test]
    fn demand_scales_consumption() {
        // Flow 0 consumes 2 units per work-unit: at equal weights the
        // saturation point gives each θ=10/3, flow0 uses 2θ, flow1 θ.
        let flows = [
            Flow::single(1.0, None, 0, 2.0),
            Flow::single(1.0, None, 0, 1.0),
        ];
        let r = max_min_rates(&flows, &[10.0]).unwrap();
        assert_close(r[0], 10.0 / 3.0);
        assert_close(r[1], 10.0 / 3.0);
        // Feasibility.
        assert!(r[0] * 2.0 + r[1] <= 10.0 + 1e-9);
    }

    #[test]
    fn disjoint_resources_do_not_interact() {
        let flows = [
            Flow::single(1.0, None, 0, 1.0),
            Flow::single(1.0, None, 1, 1.0),
        ];
        let r = max_min_rates(&flows, &[4.0, 6.0]).unwrap();
        assert_close(r[0], 4.0);
        assert_close(r[1], 6.0);
    }

    #[test]
    fn multi_resource_flow_bound_by_tightest() {
        // Flow 0 needs both r0 and r1; r1 is tight because flow 1 shares it.
        let flows = [
            Flow {
                weight: 1.0,
                cap: None,
                demands: vec![(0, 1.0), (1, 1.0)],
            },
            Flow::single(1.0, None, 1, 1.0),
        ];
        let r = max_min_rates(&flows, &[100.0, 10.0]).unwrap();
        assert_close(r[0], 5.0);
        assert_close(r[1], 5.0);
    }

    #[test]
    fn freed_capacity_cascades() {
        // Three flows on one resource of 12; flow 0 caps at 2. Max-min:
        // flow0=2, flows 1-2 split the remaining 10 evenly.
        let flows = [
            Flow::single(1.0, Some(2.0), 0, 1.0),
            Flow::single(1.0, None, 0, 1.0),
            Flow::single(1.0, None, 0, 1.0),
        ];
        let r = max_min_rates(&flows, &[12.0]).unwrap();
        assert_close(r[0], 2.0);
        assert_close(r[1], 5.0);
        assert_close(r[2], 5.0);
    }

    #[test]
    fn zero_weight_flow_gets_zero() {
        let flows = [
            Flow::single(0.0, None, 0, 1.0),
            Flow::single(1.0, None, 0, 1.0),
        ];
        let r = max_min_rates(&flows, &[10.0]).unwrap();
        assert_close(r[0], 0.0);
        assert_close(r[1], 10.0);
    }

    #[test]
    fn unbounded_flow_is_detected() {
        let flows = [Flow {
            weight: 1.0,
            cap: None,
            demands: vec![],
        }];
        assert!(matches!(
            max_min_rates(&flows, &[]),
            Err(SimError::UnboundedFlow(0))
        ));
    }

    #[test]
    fn zero_capacity_resource_with_cap_fallback() {
        // Resource has zero capacity; flow still bounded by its cap...
        // but a zero-capacity resource means the flow can never progress:
        // slope>0 gives θ=0 → rate 0.
        let flows = [Flow::single(1.0, Some(5.0), 0, 1.0)];
        let r = max_min_rates(&flows, &[0.0]).unwrap();
        assert_close(r[0], 0.0);
    }

    #[test]
    fn no_flows_is_fine() {
        let r = max_min_rates(&[], &[1.0, 2.0]).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn rejects_negative_capacity() {
        let flows = [Flow::single(1.0, None, 0, 1.0)];
        assert!(matches!(
            max_min_rates(&flows, &[-1.0]),
            Err(SimError::InvalidNumber { .. })
        ));
    }

    #[test]
    fn rejects_nan_weight() {
        let flows = [Flow::single(f64::NAN, None, 0, 1.0)];
        assert!(max_min_rates(&flows, &[1.0]).is_err());
    }

    #[test]
    fn pcie_scenario_two_gpus_share_direction() {
        // Two HtoD chunk transfers to different GPUs share the 12 GB/s
        // host link even though each device link could do 12 GB/s alone.
        let host_down = 0usize;
        let flows = [
            Flow::single(1.0, Some(12e9), host_down, 1.0),
            Flow::single(1.0, Some(12e9), host_down, 1.0),
        ];
        let r = max_min_rates(&flows, &[12e9]).unwrap();
        assert_close(r[0], 6e9);
        assert_close(r[1], 6e9);
    }

    #[test]
    fn memcpy_vs_merge_bus_contention() {
        // A single-core memcpy (cap 8 GB/s copied, 2 B traffic per B)
        // and a 16-thread merge (cap 2.29e9 elem/s, 24 B traffic per
        // elem) share a 28 GB/s bus. To share the *bus traffic* equally,
        // weights are set to 1/demand so θ·w·d is identical across flows
        // — the convention hetsort-vgpu uses for memory-bus sharing.
        let bus = 0usize;
        let flows = [
            Flow {
                weight: 1.0 / 2.0,
                cap: Some(8e9),
                demands: vec![(bus, 2.0)],
            },
            Flow {
                weight: 1.0 / 24.0,
                cap: Some(2.29e9),
                demands: vec![(bus, 24.0)],
            },
        ];
        let r = max_min_rates(&flows, &[28e9]).unwrap();
        // Feasible and bus-saturated (both want more than half).
        let usage = r[0] * 2.0 + r[1] * 24.0;
        assert!(usage <= 28e9 * (1.0 + 1e-9));
        assert!(usage >= 28e9 * 0.999, "bus should saturate, usage={usage}");
        // Equal traffic shares: 14 GB/s each → memcpy 7 GB/s copied
        // (below its 8 cap), merge 14/24 ≈ 0.583e9 elem/s.
        assert_close(r[0], 7e9);
        assert_close(r[1], 14e9 / 24.0);
    }
}
