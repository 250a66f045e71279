//! Comparing a maintained deployment's answers with a rebuilt framework's.
//!
//! A top-k answer is correct when it holds the k best scores and every
//! dataset that beats the k-th score.  The program also promises to break
//! ties by dataset id, but its OJSP leaf pruning (`ub <= kth_best`) can skip
//! a leaf holding a tied dataset with a smaller id, so an incrementally
//! maintained index and a rebuilt one may fill the k-th place with
//! different tied datasets.  Such answers are reported as [`Parity::TieOrder`]
//! — visible in the output, but not a wrong answer.  The tolerance covers
//! ranked lists only: a CJSP answer must select exactly the same datasets,
//! in the same greedy order, as the rebuilt framework's.

use multisource::{CommStats, SearchResults};

/// How two answers to the same request compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parity {
    /// Identical answers.
    Same,
    /// The same scores, differing only in which tied datasets fill the last
    /// places.
    TieOrder,
    /// Different scores, or a different dataset above the tie.
    Differs,
}

/// Compares one ranked list: `(id, score)` in rank order, `better(a, b)`
/// when score `a` strictly beats `b`.
fn ranked<I: PartialEq, S: PartialEq + Copy>(
    got: &[(I, S)],
    want: &[(I, S)],
    better: impl Fn(S, S) -> bool,
) -> Parity {
    if got == want {
        return Parity::Same;
    }
    if got.len() != want.len() || got.iter().zip(want).any(|(g, w)| g.1 != w.1) {
        return Parity::Differs;
    }
    let Some(&(_, last)) = want.last() else {
        return Parity::Same;
    };
    // Scores match rank by rank, so the entries that beat the last score
    // are the same-length prefix of both lists.
    let above = want.iter().filter(|(_, s)| better(*s, last)).count();
    let (g, w) = (&got[..above], &want[..above]);
    if g.iter().any(|x| !w.contains(x)) {
        return Parity::Differs;
    }
    Parity::TieOrder
}

/// The worst parity over every query of the two answers.
pub fn compare(got: &SearchResults, want: &SearchResults) -> Parity {
    let per_query: Vec<Parity> = match (got, want) {
        (SearchResults::Overlap(g), SearchResults::Overlap(w)) if g.len() == w.len() => g
            .iter()
            .zip(w)
            .map(|(g, w)| {
                let list = |a: &multisource::AggregatedOverlap| -> Vec<_> {
                    a.results
                        .iter()
                        .map(|(s, r)| ((*s, r.dataset), r.overlap))
                        .collect()
                };
                ranked(&list(g), &list(w), |a, b| a > b)
            })
            .collect(),
        (SearchResults::Knn(g), SearchResults::Knn(w)) if g.len() == w.len() => g
            .iter()
            .zip(w)
            .map(|(g, w)| {
                let list = |a: &multisource::AggregatedKnn| -> Vec<_> {
                    a.neighbors
                        .iter()
                        .map(|(s, n)| ((*s, n.dataset), n.distance))
                        .collect()
                };
                ranked(&list(g), &list(w), |a, b| a < b)
            })
            .collect(),
        (SearchResults::Coverage(g), SearchResults::Coverage(w)) => {
            vec![if g == w {
                Parity::Same
            } else {
                Parity::Differs
            }]
        }
        _ => vec![Parity::Differs],
    };
    if per_query.contains(&Parity::Differs) {
        Parity::Differs
    } else if per_query.contains(&Parity::TieOrder) {
        Parity::TieOrder
    } else {
        Parity::Same
    }
}

/// Compares a whole response: answers by [`compare`], then `CommStats`.
/// Routing and clipping must match exactly: requests, replies, sources
/// contacted and the bytes sent to the sources.  The reply bytes may differ
/// only as tie order: a source that breaks a tie at its own k-th place
/// differently replies with another dataset id, whose encoded size may
/// differ, even when the aggregated answer is the same.
pub fn compare_response(
    got: (&SearchResults, &CommStats),
    want: (&SearchResults, &CommStats),
) -> Parity {
    let (gc, wc) = (got.1, want.1);
    let answers = compare(got.0, want.0);
    if answers == Parity::Differs
        || gc.requests != wc.requests
        || gc.replies != wc.replies
        || gc.sources_contacted != wc.sources_contacted
        || gc.bytes_to_sources != wc.bytes_to_sources
    {
        Parity::Differs
    } else if answers == Parity::Same && gc.bytes_to_center == wc.bytes_to_center {
        Parity::Same
    } else {
        Parity::TieOrder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dits::{Neighbor, OverlapResult};
    use multisource::{AggregatedKnn, AggregatedOverlap};

    fn ojsp(rows: &[(u32, usize)]) -> SearchResults {
        SearchResults::Overlap(vec![AggregatedOverlap {
            results: rows
                .iter()
                .map(|&(dataset, overlap)| (0, OverlapResult { dataset, overlap }))
                .collect(),
        }])
    }

    #[test]
    fn boundary_ties_are_tie_order_not_differences() {
        let want = ojsp(&[(76, 1000), (16, 71), (1, 2), (39, 2)]);
        assert_eq!(compare(&want, &want), Parity::Same);
        let tie = ojsp(&[(76, 1000), (16, 71), (1, 2), (48, 2)]);
        assert_eq!(compare(&tie, &want), Parity::TieOrder);
        let wrong_score = ojsp(&[(76, 1000), (16, 71), (1, 2), (48, 1)]);
        assert_eq!(compare(&wrong_score, &want), Parity::Differs);
        let wrong_above = ojsp(&[(76, 1000), (17, 71), (1, 2), (39, 2)]);
        assert_eq!(compare(&wrong_above, &want), Parity::Differs);
        assert_eq!(compare(&ojsp(&[(1, 2)]), &want), Parity::Differs);
    }

    #[test]
    fn coverage_answers_must_select_the_same_datasets() {
        let cjsp = |selected: Vec<(u16, u32)>| {
            SearchResults::Coverage(vec![multisource::AggregatedCoverage {
                selected,
                coverage: 40,
                query_coverage: 10,
            }])
        };
        let want = cjsp(vec![(0, 3), (1, 7)]);
        assert_eq!(compare(&want, &want), Parity::Same);
        // Same coverage and count, another dataset: a wrong answer.
        assert_eq!(compare(&cjsp(vec![(0, 3), (1, 8)]), &want), Parity::Differs);
    }

    #[test]
    fn knn_ranks_by_smaller_distance() {
        let knn = |rows: &[(u32, f64)]| {
            SearchResults::Knn(vec![AggregatedKnn {
                neighbors: rows
                    .iter()
                    .map(|&(dataset, distance)| (1, Neighbor { dataset, distance }))
                    .collect(),
            }])
        };
        let want = knn(&[(3, 0.0), (9, 2.5), (4, 2.5)]);
        assert_eq!(
            compare(&knn(&[(3, 0.0), (9, 2.5), (5, 2.5)]), &want),
            Parity::TieOrder
        );
        assert_eq!(
            compare(&knn(&[(2, 0.0), (9, 2.5), (4, 2.5)]), &want),
            Parity::Differs
        );
    }

    #[test]
    fn reply_bytes_may_differ_only_as_tie_order() {
        let answers = ojsp(&[(76, 1000), (16, 71)]);
        let mut a = CommStats::new();
        a.record_request(10);
        a.record_reply(20);
        assert_eq!(
            compare_response((&answers, &a), (&answers, &a)),
            Parity::Same
        );
        let mut b = a;
        b.bytes_to_center += 1;
        assert_eq!(
            compare_response((&answers, &b), (&answers, &a)),
            Parity::TieOrder
        );
        let mut c = a;
        c.bytes_to_sources += 1;
        assert_eq!(
            compare_response((&answers, &c), (&answers, &a)),
            Parity::Differs
        );
        let mut d = a;
        d.sources_contacted += 1;
        assert_eq!(
            compare_response((&answers, &d), (&answers, &a)),
            Parity::Differs
        );
        let other = ojsp(&[(77, 1000), (16, 71)]);
        assert_eq!(
            compare_response((&other, &a), (&answers, &a)),
            Parity::Differs
        );
    }
}
