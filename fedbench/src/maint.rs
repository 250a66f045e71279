//! Seeded maintenance batches, planned up front against the benchmark's own
//! record of the data, so the record after the run is known exactly.

use multisource::UpdateOp;
use rand::prelude::*;
use spatial::{Point, SourceId, SpatialDataset};

/// Operations per batch, insert:update:delete 1:2:1.  Every batch inserts
/// as many datasets as it deletes, so each source's dataset count stays
/// level.
const INSERTS: usize = DELETES;
const UPDATES: usize = 4;
const DELETES: usize = 2;

/// One maintenance batch: `(target source, ops)`.
pub type Batch = (SourceId, Vec<UpdateOp>);

/// The rounds to send, in order, and the data they leave behind.
pub struct UpdatePlan {
    /// Per round, one batch for each source large enough to take one.
    pub rounds: Vec<Vec<Batch>>,
    /// Every source's datasets after all batches applied.
    pub record: Vec<(String, Vec<SpatialDataset>)>,
}

/// A copy of `original` under `id`, moved by a seeded offset of up to
/// `reach` degrees (zero keeps it in place).
fn moved(original: &SpatialDataset, id: u32, reach: f64, rng: &mut StdRng) -> SpatialDataset {
    let mut offset = || (rng.random::<f64>() - 0.5) * 2.0 * reach;
    let (dx, dy) = (offset(), offset());
    let points = original
        .points
        .iter()
        .map(|p| {
            Point::new(
                (p.x + dx).clamp(-180.0, 180.0),
                (p.y + dy).clamp(-90.0, 90.0),
            )
        })
        .collect();
    SpatialDataset::new(id, points)
}

/// Plans `rounds` rounds against `initial`.  A round sends one batch of
/// eight operations to every source in turn, aimed at seeded datasets live
/// at that point.
///
/// Rounds, because one batch costs what its source's datasets cost: in
/// process, batches cluster by source between 0.2 and 1.9 ms, and the
/// median batch fell between clusters and jumped by a quarter with no
/// source getting slower.  A round's cost has one mode, and every seed
/// sends every source the same number of batches.
///
/// The operations keep the data's shape, so a long run costs what a short
/// one does and every seed measures the same federation: a deleted dataset
/// comes back under a fresh id in the same batch (the inserts), and an
/// update moves a dataset to within 0.01° of where it started (never
/// further, however often it is updated).
pub fn plan_updates(
    initial: &[(String, Vec<SpatialDataset>)],
    rounds: usize,
    seed: u64,
) -> UpdatePlan {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5550_4454);
    let mut record = initial.to_vec();
    // Per source: each live dataset's original, by position in `record`.
    let mut origin: Vec<Vec<SpatialDataset>> = record.iter().map(|(_, d)| d.clone()).collect();
    let mut next_id: Vec<u32> = record
        .iter()
        .map(|(_, d)| d.iter().map(|d| d.id).max().map_or(0, |m| m + 1))
        .collect();
    let eligible: Vec<usize> = (0..record.len())
        .filter(|&s| record[s].1.len() >= UPDATES + DELETES)
        .collect();
    let mut planned = vec![Vec::with_capacity(eligible.len()); rounds];
    for b in 0..rounds * eligible.len() {
        let source = eligible[b % eligible.len()];
        let (live, origins) = (&mut record[source].1, &mut origin[source]);
        let mut picks: Vec<usize> = (0..live.len()).collect();
        picks.shuffle(&mut rng);
        let (updated, deleted) = picks[..UPDATES + DELETES].split_at(UPDATES);
        let mut ops = Vec::with_capacity(INSERTS + UPDATES + DELETES);
        let mut inserted = Vec::with_capacity(INSERTS);
        for &i in &deleted[..INSERTS] {
            let d = moved(&origins[i], next_id[source], 0.0, &mut rng);
            next_id[source] += 1;
            ops.push(UpdateOp::Insert(d.clone()));
            inserted.push((d, origins[i].clone()));
        }
        for &i in updated {
            let d = moved(&origins[i], live[i].id, 0.01, &mut rng);
            ops.push(UpdateOp::Update(d.clone()));
            live[i] = d;
        }
        let mut gone: Vec<usize> = deleted.to_vec();
        ops.extend(gone.iter().map(|&i| UpdateOp::Delete(live[i].id)));
        gone.sort_unstable_by(|a, b| b.cmp(a));
        for i in gone {
            live.remove(i);
            origins.remove(i);
        }
        for (d, o) in inserted {
            live.push(d);
            origins.push(o);
        }
        planned[b / eligible.len()].push((source as SourceId, ops));
    }
    UpdatePlan {
        rounds: planned,
        record,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Vec<(String, Vec<SpatialDataset>)> {
        (0..3)
            .map(|s| {
                let datasets = (0..12)
                    .map(|i| SpatialDataset::new(i, vec![Point::new(f64::from(i + s), 10.0)]))
                    .collect();
                (format!("s{s}"), datasets)
            })
            .collect()
    }

    #[test]
    fn plans_keep_counts_level_and_target_live_ids() {
        let initial = data();
        let plan = plan_updates(&initial, 8, 3);
        assert_eq!(plan.rounds.len(), 8);
        let sources: Vec<Vec<SourceId>> = plan
            .rounds
            .iter()
            .map(|r| r.iter().map(|b| b.0).collect())
            .collect();
        assert_eq!(
            sources,
            vec![vec![0, 1, 2]; 8],
            "every source in every round"
        );
        for ((_, before), (_, after)) in initial.iter().zip(&plan.record) {
            assert_eq!(before.len(), after.len());
            // Every live dataset stays within 0.01° of an original one.
            for d in after {
                assert!(before
                    .iter()
                    .any(|o| (o.points[0].x - d.points[0].x).abs() <= 0.01));
            }
        }
        // Replaying the plan on a fresh copy never misses a target.
        let mut replay = initial.clone();
        for (source, ops) in plan.rounds.iter().flatten() {
            let live = &mut replay[usize::from(*source)].1;
            for op in ops {
                match op {
                    UpdateOp::Insert(d) => {
                        assert!(live.iter().all(|x| x.id != d.id));
                        live.push(d.clone());
                    }
                    UpdateOp::Update(d) => {
                        let slot = live.iter_mut().find(|x| x.id == d.id).expect("live");
                        *slot = d.clone();
                    }
                    UpdateOp::Delete(id) => {
                        let at = live.iter().position(|x| x.id == *id).expect("live");
                        live.remove(at);
                    }
                }
            }
        }
        for ((_, a), (_, b)) in replay.iter().zip(&plan.record) {
            let mut a = a.clone();
            let mut b = b.clone();
            a.sort_by_key(|d| d.id);
            b.sort_by_key(|d| d.id);
            assert_eq!(a, b);
        }
        assert_eq!(
            plan_updates(&initial, 8, 3).rounds,
            plan.rounds,
            "same seed, same plan"
        );
    }
}
