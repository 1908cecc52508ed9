//! The benchmark suite: workload ids, single-lambda programs, and the
//! §6.4 combined program (two key-value clients, a web server, and an
//! image transformer) used for the optimizer-effectiveness experiment
//! (Figure 9).

use lnic_mlambda::program::{Program, WorkloadId};

use crate::image::image_transformer_lambda;
use crate::kv::{kv_get_client_lambda, kv_set_client_lambda};
use crate::web::{web_server_lambda, WebContent};

/// Workload id of the web server.
pub const WEB_ID: WorkloadId = WorkloadId(1);
/// Workload id of the key-value GET client.
pub const KV_GET_ID: WorkloadId = WorkloadId(2);
/// Workload id of the key-value SET client.
pub const KV_SET_ID: WorkloadId = WorkloadId(3);
/// Workload id of the image transformer.
pub const IMAGE_ID: WorkloadId = WorkloadId(4);

/// Suite knobs.
#[derive(Clone, Debug)]
pub struct SuiteConfig {
    /// Pages served by the web server.
    pub web_pages: usize,
    /// Approximate bytes per page.
    pub web_page_size: usize,
    /// Result-buffer capacity of the image transformer, in pixels.
    pub image_max_pixels: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            web_pages: 64,
            web_page_size: 1024,
            image_max_pixels: 256 * 256,
        }
    }
}

/// Route-management metadata attached per lambda in the naive build
/// (merged into per-entry parameters by match reduction, §5.1).
fn route_params(id: WorkloadId) -> Vec<u64> {
    // Next-hop ip, port, and a queue weight — the kind of per-route
    // state §6.4's per-lambda route tables carry.
    vec![0x0a00_0002 + id.0 as u64, 8000 + id.0 as u64, 1]
}

/// The web content used across experiments.
pub fn default_web_content(cfg: &SuiteConfig) -> WebContent {
    WebContent::generate(cfg.web_pages, cfg.web_page_size)
}

/// A program with only the web server.
pub fn web_program(cfg: &SuiteConfig) -> Program {
    let mut p = Program::new();
    p.add_lambda(
        web_server_lambda(WEB_ID, &default_web_content(cfg)),
        route_params(WEB_ID),
    );
    p
}

/// A program with only the key-value GET client.
pub fn kv_get_program() -> Program {
    let mut p = Program::new();
    p.add_lambda(kv_get_client_lambda(KV_GET_ID), route_params(KV_GET_ID));
    p
}

/// A program with only the key-value SET client.
pub fn kv_set_program() -> Program {
    let mut p = Program::new();
    p.add_lambda(kv_set_client_lambda(KV_SET_ID), route_params(KV_SET_ID));
    p
}

/// A program with only the image transformer.
pub fn image_program(cfg: &SuiteConfig) -> Program {
    let mut p = Program::new();
    p.add_lambda(
        image_transformer_lambda(IMAGE_ID, cfg.image_max_pixels),
        route_params(IMAGE_ID),
    );
    p
}

/// The §6.4 benchmark program: "two key-value clients, a web server, and
/// an image transformer lambda".
pub fn benchmark_program(cfg: &SuiteConfig) -> Program {
    let mut p = Program::new();
    p.add_lambda(kv_get_client_lambda(KV_GET_ID), route_params(KV_GET_ID));
    p.add_lambda(kv_set_client_lambda(KV_SET_ID), route_params(KV_SET_ID));
    p.add_lambda(
        web_server_lambda(WEB_ID, &default_web_content(cfg)),
        route_params(WEB_ID),
    );
    p.add_lambda(
        image_transformer_lambda(IMAGE_ID, cfg.image_max_pixels),
        route_params(IMAGE_ID),
    );
    p
}

/// Three *distinct* web-server lambdas (different content), as in the
/// context-switching experiment of §6.3.2 / Figure 8.
pub fn three_web_servers() -> Program {
    let mut p = Program::new();
    for i in 0..3u32 {
        let content = WebContent::generate(2 + i as usize, 512 + 256 * i as usize);
        let id = WorkloadId(10 + i);
        p.add_lambda(web_server_lambda(id, &content), route_params(id));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnic_mlambda::compile::lower::lower;
    use lnic_mlambda::compile::{
        coalesce, compile, count_words, naive_placements, CoalesceReport, CompileOptions,
        LowerOptions, OptReport,
    };

    #[test]
    fn all_suite_programs_validate() {
        let cfg = SuiteConfig::default();
        for (name, p) in [
            ("web", web_program(&cfg)),
            ("kv_get", kv_get_program()),
            ("kv_set", kv_set_program()),
            ("image", image_program(&cfg)),
            ("benchmark", benchmark_program(&cfg)),
            ("three_web", three_web_servers()),
        ] {
            p.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn benchmark_program_compiles_both_ways() {
        let p = benchmark_program(&SuiteConfig::default());
        let naive = compile(&p, &CompileOptions::naive()).expect("naive compiles");
        let opt = compile(&p, &CompileOptions::optimized()).expect("optimized compiles");
        assert!(opt.instruction_words() < naive.instruction_words());
        // All three passes contribute (Figure 9's stages are distinct).
        let r = opt.report;
        assert!(r.unoptimized > r.after_coalescing);
        assert!(r.after_coalescing > r.after_match_reduction);
        assert!(r.after_match_reduction > r.after_stratification);
    }

    #[test]
    fn benchmark_program_fig9_counts_are_pinned() {
        let fw = compile(
            &benchmark_program(&SuiteConfig::default()),
            &CompileOptions::optimized(),
        )
        .unwrap();
        assert_eq!(
            fw.report,
            OptReport {
                unoptimized: 1145,
                after_coalescing: 945,
                after_match_reduction: 841,
                after_stratification: 811,
            }
        );
    }

    #[test]
    fn benchmark_program_coalescing_is_pinned() {
        let (out, report) = coalesce(&benchmark_program(&SuiteConfig::default()));
        assert_eq!(
            report,
            CoalesceReport {
                functions_shared: 5,
                calls_rewritten: 14,
                functions_removed: 12,
                instrs_removed: 0,
            }
        );
        let names: Vec<&str> = out.shared.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "shared_format_decimal",
                "shared_classify_kv_response",
                "shared_emit_reply_preamble",
                "shared_checksum64",
                "shared_log_entry",
            ]
        );
    }

    #[test]
    fn word_count_sink_matches_the_lowered_image() {
        let unbounded = CompileOptions {
            instruction_store_words: 1 << 20,
            ..CompileOptions::optimized()
        };
        let spec = &unbounded.memory;
        for (name, authored) in [
            ("suite", benchmark_program(&SuiteConfig::default())),
            ("tenant fleet", crate::tenant_fleet_program(100, 600)),
        ] {
            let fw = compile(&authored, &unbounded).unwrap();
            for (program, placements) in [
                (&authored, naive_placements(&authored)),
                (&fw.program, naive_placements(&fw.program)),
                (&fw.program, fw.placements.clone()),
            ] {
                for per_lambda_stages in [true, false] {
                    let opts = LowerOptions { per_lambda_stages };
                    assert_eq!(
                        count_words(program, &placements, spec, opts),
                        lower(program, &placements, spec, opts).len(),
                        "{name}, {opts:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn benchmark_program_fits_instruction_store() {
        let p = benchmark_program(&SuiteConfig::default());
        let fw = compile(&p, &CompileOptions::optimized()).unwrap();
        assert!(fw.instruction_words() < 16 * 1024 - 1024);
    }

    #[test]
    fn workload_ids_are_distinct() {
        let ids = [WEB_ID, KV_GET_ID, KV_SET_ID, IMAGE_ID];
        for (i, a) in ids.iter().enumerate() {
            for b in &ids[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn three_web_servers_have_distinct_content() {
        let p = three_web_servers();
        assert_eq!(p.lambdas.len(), 3);
        let sizes: Vec<u32> = p.lambdas.iter().map(|l| l.objects[1].size).collect();
        assert!(sizes[0] != sizes[1] && sizes[1] != sizes[2]);
    }
}
