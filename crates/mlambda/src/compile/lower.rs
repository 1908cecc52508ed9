//! Lowering: turns a Match+Lambda [`Program`] into the per-core binary
//! image every NPU core runs (§5: "we therefore execute all three stages
//! (parse, match, and lambdas) together inside a core, with every core
//! running the same Match+Lambda program").
//!
//! The lowered artifact is a flat list of instruction-store words with
//! provenance, so instruction counts (Figure 9) and the per-core
//! instruction-store limit are byte-accurate facts about a real object,
//! not estimates.

use std::collections::BTreeSet;

use crate::ir::{HeaderClass, Instr, ObjId};
use crate::memory::{MemLevel, MemorySpec};
use crate::program::{Lambda, MatchTable, Program};

use super::stratify::Placements;

/// One instruction-store word of the lowered image, tagged with what it
/// implements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Word {
    /// A parser micro-op extracting part of a header.
    Parse(HeaderClass),
    /// Table-engine setup for one table (naive lowering only).
    TableSetup,
    /// Key extraction for a table lookup.
    TableKey,
    /// Per-entry key comparison.
    TableCmp,
    /// Per-entry action invocation.
    TableAction,
    /// One IR instruction of a lambda or shared function.
    Ir(Instr),
    /// Address-formation word for an access to far memory.
    MemSetup(ObjId),
    /// Loop setup word for a bulk copy.
    BulkSetup,
    /// Packet-generation word for a network RPC.
    RpcSetup,
}

/// How the match/parse stages are lowered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LowerOptions {
    /// `true` (naive): each lambda carries its own parser and its tables
    /// are lowered through the generic table engine. `false` (after match
    /// reduction): one merged parser and if-else dispatch.
    pub per_lambda_stages: bool,
}

/// The per-core binary image.
#[derive(Clone, Debug, PartialEq)]
pub struct CoreBinary {
    /// Every instruction-store word.
    pub words: Vec<Word>,
    /// Word counts per section, for reporting.
    pub sections: Sections,
}

/// Word counts by section.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sections {
    /// Parser words.
    pub parser: usize,
    /// Match-stage words.
    pub match_stage: usize,
    /// Lambda function-body words (incl. memory setup).
    pub lambdas: usize,
    /// Shared-library words.
    pub shared: usize,
}

impl CoreBinary {
    /// Total instruction-store words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the image is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }
}

/// Words each parsed header class costs.
fn parser_words(class: HeaderClass) -> usize {
    match class {
        HeaderClass::Ethernet => 4,
        HeaderClass::Ipv4 => 6,
        HeaderClass::Udp => 3,
        HeaderClass::Lambda => 6,
    }
}

/// The header classes a lambda's parser must extract: Ethernet and the
/// λ-NIC header always (dispatch needs the workload id), plus whatever
/// the body reads.
fn lambda_header_classes(lambda: &Lambda) -> BTreeSet<HeaderClass> {
    let mut classes: BTreeSet<HeaderClass> = [HeaderClass::Ethernet, HeaderClass::Lambda].into();
    for field in lambda.used_header_fields() {
        classes.insert(field.header_class());
    }
    // UDP cannot be parsed without IPv4.
    if classes.contains(&HeaderClass::Udp) {
        classes.insert(HeaderClass::Ipv4);
    }
    classes
}

/// Where the emit path writes: the image itself, or just its length.
/// Both sinks see the same word sequence, so a count is the exact
/// length of the image [`lower`] would build.
trait Sink {
    /// Appends `n` copies of `word`.
    fn push_n(&mut self, n: usize, word: Word);

    /// Appends the word for one IR instruction.
    fn push_ir(&mut self, instr: &Instr);

    /// Words emitted so far.
    fn len(&self) -> usize;
}

impl Sink for Vec<Word> {
    fn push_n(&mut self, n: usize, word: Word) {
        self.extend(std::iter::repeat_n(word, n));
    }

    fn push_ir(&mut self, instr: &Instr) {
        self.push(Word::Ir(*instr));
    }

    fn len(&self) -> usize {
        Vec::len(self)
    }
}

/// The counting sink: a word count, no image.
impl Sink for usize {
    fn push_n(&mut self, n: usize, _: Word) {
        *self += n;
    }

    fn push_ir(&mut self, _: &Instr) {
        *self += 1;
    }

    fn len(&self) -> usize {
        *self
    }
}

fn emit_parser(words: &mut impl Sink, classes: &BTreeSet<HeaderClass>) {
    for &class in classes {
        words.push_n(parser_words(class), Word::Parse(class));
    }
}

/// Generic table-engine lowering: setup + key extraction + per-entry
/// compare/action.
fn emit_table_engine(words: &mut impl Sink, table: &MatchTable) {
    words.push_n(3, Word::TableSetup);
    words.push_n(table.keys.len(), Word::TableKey);
    for e in &table.entries {
        words.push_n(e.values.len(), Word::TableCmp);
        words.push_n(2, Word::TableAction);
    }
}

/// If-else lowering: one extraction per key, then compare+action per
/// entry ("the P4 tables are converted into if-else sequences, which the
/// NIC core can execute more efficiently", §5.1).
fn emit_table_if_else(words: &mut impl Sink, table: &MatchTable) {
    words.push_n(table.keys.len(), Word::TableKey);
    for e in &table.entries {
        words.push_n(e.values.len(), Word::TableCmp);
        words.push_n(1, Word::TableAction);
    }
}

/// Words for one IR instruction given its objects' placements.
fn emit_instr(
    words: &mut impl Sink,
    instr: &Instr,
    placement: Option<&[MemLevel]>,
    spec: &MemorySpec,
) {
    let mut setup = |obj: ObjId| {
        let n = match placement {
            Some(p) => spec.level(p[obj.0 as usize]).access_setup_words,
            None => spec.emem.access_setup_words,
        };
        words.push_n(n as usize, Word::MemSetup(obj));
    };
    match *instr {
        Instr::Load { obj, .. } | Instr::Store { obj, .. } => setup(obj),
        Instr::EmitObj { obj, .. } | Instr::PayloadToObj { obj, .. } => {
            setup(obj);
            words.push_n(2, Word::BulkSetup);
        }
        Instr::NetRpc {
            req_obj, resp_obj, ..
        } => {
            setup(req_obj);
            setup(resp_obj);
            words.push_n(5, Word::RpcSetup);
        }
        _ => {}
    }
    words.push_ir(instr);
}

/// The one emit path behind [`lower`] and [`count_words`].
fn emit(
    words: &mut impl Sink,
    program: &Program,
    placements: &Placements,
    spec: &MemorySpec,
    opts: LowerOptions,
) -> Sections {
    let mut sections = Sections::default();

    // Parser + match stage.
    let before = words.len();
    if opts.per_lambda_stages {
        for lambda in &program.lambdas {
            emit_parser(words, &lambda_header_classes(lambda));
        }
    } else {
        let mut classes = BTreeSet::new();
        for lambda in &program.lambdas {
            classes.extend(lambda_header_classes(lambda));
        }
        emit_parser(words, &classes);
    }
    sections.parser = words.len() - before;

    let before = words.len();
    for table in &program.tables {
        if opts.per_lambda_stages {
            emit_table_engine(words, table);
        } else {
            emit_table_if_else(words, table);
        }
    }
    sections.match_stage = words.len() - before;

    // Lambda bodies.
    let before = words.len();
    for (li, lambda) in program.lambdas.iter().enumerate() {
        let placement = placements.get(li).map(|v| v.as_slice());
        for instr in lambda.instrs() {
            emit_instr(words, instr, placement, spec);
        }
    }
    sections.lambdas = words.len() - before;

    // Shared library: its object accesses are charged as external
    // memory, whichever lambda calls it.
    let before = words.len();
    for function in &program.shared {
        for instr in &function.body {
            emit_instr(words, instr, None, spec);
        }
    }
    sections.shared = words.len() - before;
    sections
}

/// Lowers `program` into a per-core binary.
///
/// `placements` gives each object's memory level (use
/// [`super::stratify::naive_placements`] for unoptimized builds).
pub fn lower(
    program: &Program,
    placements: &Placements,
    spec: &MemorySpec,
    opts: LowerOptions,
) -> CoreBinary {
    let mut words = Vec::new();
    let sections = emit(&mut words, program, placements, spec, opts);
    CoreBinary { words, sections }
}

/// The word count of the image [`lower`] builds, without building it.
pub fn count_words(
    program: &Program,
    placements: &Placements,
    spec: &MemorySpec,
    opts: LowerOptions,
) -> usize {
    let mut words = 0;
    emit(&mut words, program, placements, spec, opts);
    words
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::stratify::naive_placements;
    use crate::ir::{Function, Width};
    use crate::program::{Lambda, MemObject, Program, WorkloadId};

    fn spec() -> MemorySpec {
        MemorySpec::agilio_cx()
    }

    fn simple_program() -> Program {
        let mut l = Lambda::new(
            "w",
            WorkloadId(1),
            Function::new(
                "entry",
                vec![
                    Instr::Const { dst: 1, value: 0 },
                    Instr::Load {
                        dst: 2,
                        obj: ObjId(0),
                        addr: 1,
                        width: Width::B8,
                    },
                    Instr::Const { dst: 0, value: 0 },
                    Instr::Ret,
                ],
            ),
        );
        l.add_object(MemObject::zeroed("buf", 64));
        let mut p = Program::new();
        p.add_lambda(l, vec![]);
        p
    }

    #[test]
    fn naive_lowering_charges_emem_setup() {
        let p = simple_program();
        let bin = lower(
            &p,
            &naive_placements(&p),
            &spec(),
            LowerOptions {
                per_lambda_stages: true,
            },
        );
        // The Load to an EMEM object needs 2 setup words.
        let setups = bin
            .words
            .iter()
            .filter(|w| matches!(w, Word::MemSetup(_)))
            .count();
        assert_eq!(setups, 2);
        assert!(bin.sections.parser > 0);
        assert!(bin.sections.match_stage > 0);
        assert_eq!(bin.len(), bin.words.len());
    }

    #[test]
    fn near_placement_removes_setup_words() {
        let p = simple_program();
        let near: Placements = vec![vec![MemLevel::Lmem]];
        let far = lower(
            &p,
            &naive_placements(&p),
            &spec(),
            LowerOptions {
                per_lambda_stages: true,
            },
        );
        let close = lower(
            &p,
            &near,
            &spec(),
            LowerOptions {
                per_lambda_stages: true,
            },
        );
        assert!(close.len() < far.len());
        assert_eq!(far.len() - close.len(), 2);
    }

    #[test]
    fn if_else_lowering_is_smaller_than_table_engine() {
        let p = simple_program();
        let placements = naive_placements(&p);
        let naive = lower(
            &p,
            &placements,
            &spec(),
            LowerOptions {
                per_lambda_stages: true,
            },
        );
        let reduced = lower(
            &p,
            &placements,
            &spec(),
            LowerOptions {
                per_lambda_stages: false,
            },
        );
        assert!(reduced.sections.match_stage < naive.sections.match_stage);
    }

    #[test]
    fn merged_parser_smaller_with_multiple_lambdas() {
        let mut p = simple_program();
        let mut l2 = Lambda::new(
            "w2",
            WorkloadId(2),
            Function::new("entry", vec![Instr::Const { dst: 0, value: 0 }, Instr::Ret]),
        );
        let _ = &mut l2;
        p.add_lambda(l2, vec![]);
        let placements = naive_placements(&p);
        let per_lambda = lower(
            &p,
            &placements,
            &spec(),
            LowerOptions {
                per_lambda_stages: true,
            },
        );
        let merged = lower(
            &p,
            &placements,
            &spec(),
            LowerOptions {
                per_lambda_stages: false,
            },
        );
        assert!(merged.sections.parser < per_lambda.sections.parser);
    }

    #[test]
    fn udp_fields_pull_in_ipv4_parsing() {
        let mut p = Program::new();
        let l = Lambda::new(
            "w",
            WorkloadId(1),
            Function::new(
                "entry",
                vec![
                    Instr::LoadHdr {
                        dst: 1,
                        field: crate::ir::HeaderField::DstPort,
                    },
                    Instr::Const { dst: 0, value: 0 },
                    Instr::Ret,
                ],
            ),
        );
        p.add_lambda(l, vec![]);
        let bin = lower(
            &p,
            &naive_placements(&p),
            &spec(),
            LowerOptions {
                per_lambda_stages: true,
            },
        );
        assert!(bin
            .words
            .iter()
            .any(|w| matches!(w, Word::Parse(HeaderClass::Ipv4))));
        assert!(bin
            .words
            .iter()
            .any(|w| matches!(w, Word::Parse(HeaderClass::Udp))));
    }
}
