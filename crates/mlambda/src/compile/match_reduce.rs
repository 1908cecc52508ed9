//! Match reduction (§5.1): merge the per-lambda dispatch and
//! route-management tables into one table keyed on the workload id, with
//! route state carried as per-entry parameters (P4 metadata). The lowering
//! stage then emits the merged table as an if-else chain instead of a
//! generic table-engine lookup.

use std::collections::HashMap;

use crate::program::{MatchAction, MatchEntry, MatchKey, MatchTable, Program};

/// Statistics reported by the match-reduction pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MatchReduceReport {
    /// Tables before the pass.
    pub tables_before: usize,
    /// Tables after the pass.
    pub tables_after: usize,
    /// Entries before the pass.
    pub entries_before: usize,
    /// Entries after the pass.
    pub entries_after: usize,
}

/// Merges all workload-id-keyed tables into a single table whose entries
/// carry the route parameters as match data. Tables keyed on other fields
/// are preserved untouched (they express policy the pass cannot merge).
/// Only the tables change, so the pass takes the program by value and
/// leaves its lambdas where they are.
pub fn match_reduce(mut p: Program) -> (Program, MatchReduceReport) {
    let mut report = MatchReduceReport {
        tables_before: p.tables.len(),
        entries_before: p.tables.iter().map(|t| t.entries.len()).sum(),
        ..Default::default()
    };

    // Fold every single-key WorkloadId table in order, keeping the first
    // selected lambda and the last non-empty params per id — exactly the
    // semantics of Program::dispatch over the original table sequence.
    let mut merged: Vec<(u64, usize, Vec<u64>)> = Vec::new();
    let mut index_of: HashMap<u64, usize> = HashMap::new();
    let mut kept: Vec<MatchTable> = Vec::new();

    for table in std::mem::take(&mut p.tables) {
        if table.keys != [MatchKey::WorkloadId] {
            kept.push(table);
            continue;
        }
        let MatchTable {
            name,
            keys,
            entries,
        } = table;
        for entry in entries {
            let id = entry.values[0];
            match entry.action {
                MatchAction::Invoke { lambda, params } => match index_of.get(&id) {
                    Some(&i) => {
                        if merged[i].1 == lambda && !params.is_empty() {
                            merged[i].2 = params;
                        }
                    }
                    None => {
                        index_of.insert(id, merged.len());
                        merged.push((id, lambda, params));
                    }
                },
                MatchAction::SendToHost => {
                    // A to-host rule for an id shadows nothing we merge;
                    // preserve it as its own row if the id is unknown.
                    if !index_of.contains_key(&id) {
                        kept.push(MatchTable {
                            name: name.clone(),
                            keys: keys.clone(),
                            entries: vec![MatchEntry {
                                values: entry.values,
                                action: MatchAction::SendToHost,
                            }],
                        });
                    }
                }
            }
        }
    }

    let merged_table = MatchTable {
        name: "merged_dispatch".to_owned(),
        keys: vec![MatchKey::WorkloadId],
        entries: merged
            .into_iter()
            .map(|(id, lambda, params)| MatchEntry {
                values: vec![id],
                action: MatchAction::Invoke { lambda, params },
            })
            .collect(),
    };

    p.tables = Vec::with_capacity(kept.len() + 1);
    p.tables.push(merged_table);
    p.tables.extend(kept);

    report.tables_after = p.tables.len();
    report.entries_after = p.tables.iter().map(|t| t.entries.len()).sum();
    (p, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Function, Instr};
    use crate::program::{DispatchCtx, Lambda, WorkloadId};
    use proptest::prelude::*;

    fn ret_fn() -> Function {
        Function::new("entry", vec![Instr::Const { dst: 0, value: 0 }, Instr::Ret])
    }

    fn program_with(ids_and_params: &[(u32, Vec<u64>)]) -> Program {
        let mut p = Program::new();
        for (id, params) in ids_and_params {
            p.add_lambda(
                Lambda::new(format!("l{id}"), WorkloadId(*id), ret_fn()),
                params.clone(),
            );
        }
        p
    }

    #[test]
    fn tables_merge_to_one() {
        let p = program_with(&[(1, vec![10]), (2, vec![20, 21]), (3, vec![])]);
        assert_eq!(p.tables.len(), 6);
        let (out, report) = match_reduce(p.clone());
        assert_eq!(out.tables.len(), 1);
        assert_eq!(out.tables[0].entries.len(), 3);
        assert_eq!(report.tables_before, 6);
        assert_eq!(report.tables_after, 1);
        assert_eq!(report.entries_before, 6);
        assert_eq!(report.entries_after, 3);
    }

    #[test]
    fn dispatch_equivalent_for_known_and_unknown_ids() {
        let p = program_with(&[(1, vec![10]), (7, vec![70])]);
        let (out, _) = match_reduce(p.clone());
        for wid in [0u32, 1, 2, 7, 100] {
            for has in [true, false] {
                let ctx = DispatchCtx {
                    workload_id: wid,
                    has_lambda_hdr: has,
                    ..Default::default()
                };
                assert_eq!(p.dispatch(&ctx), out.dispatch(&ctx), "wid={wid} has={has}");
            }
        }
    }

    #[test]
    fn non_workload_tables_preserved() {
        let mut p = program_with(&[(1, vec![])]);
        p.tables.push(MatchTable {
            name: "port_policy".into(),
            keys: vec![MatchKey::DstPort],
            entries: vec![MatchEntry {
                values: vec![53],
                action: MatchAction::SendToHost,
            }],
        });
        let (out, _) = match_reduce(p.clone());
        assert_eq!(out.tables.len(), 2);
        assert_eq!(out.tables[1].name, "port_policy");
        // A DNS packet still goes to the host.
        let ctx = DispatchCtx {
            workload_id: 1,
            dst_port: 53,
            has_lambda_hdr: true,
            ..Default::default()
        };
        assert_eq!(p.dispatch(&ctx), out.dispatch(&ctx));
    }

    proptest! {
        /// The merged table dispatches identically to the naive table list
        /// for arbitrary id sets and lookups.
        #[test]
        fn reduction_preserves_dispatch(
            ids in proptest::collection::btree_set(0u32..32, 1..8),
            params in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..3), 8),
            probes in proptest::collection::vec((0u32..40, any::<bool>()), 1..32),
        ) {
            let spec: Vec<(u32, Vec<u64>)> = ids
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, params[i % params.len()].clone()))
                .collect();
            let p = program_with(&spec);
            let (out, _) = match_reduce(p.clone());
            for (wid, has) in probes {
                let ctx = DispatchCtx { workload_id: wid, has_lambda_hdr: has, ..Default::default() };
                prop_assert_eq!(p.dispatch(&ctx), out.dispatch(&ctx));
            }
        }
    }
}
