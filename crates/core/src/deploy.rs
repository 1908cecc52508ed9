//! Deployment artifacts and the startup pipeline (Table 4).
//!
//! Table 4 compares "workload size" (the deployable artifact) and
//! "startup time" (download + install + first-request readiness) across
//! the three backends. The artifact sizes and pipeline stages below
//! model the paper's measured components: the Netronome firmware ELF
//! plus its loader/driver reload for λ-NIC, the Python service packaged
//! with setuptools/Wheel for bare metal, and the Docker image with
//! pull/extract/engine start for containers.

use std::borrow::Borrow;

use lnic_mlambda::compile::Firmware;
use lnic_mlambda::program::Program;
use lnic_sim::time::SimDuration;

/// Which serving stack a deployment targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// λ-NIC: lambdas on the SmartNIC.
    Nic,
    /// Bare-metal host process (Isolate-style).
    BareMetal,
    /// Container (OpenFaaS on Docker/Kubernetes).
    Container,
}

impl BackendKind {
    /// Display name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Nic => "lambda-NIC",
            BackendKind::BareMetal => "Bare Metal",
            BackendKind::Container => "Container",
        }
    }
}

/// Constants of the deployment pipeline model.
#[derive(Clone, Copy, Debug)]
pub struct DeployParams {
    /// Management-network bandwidth (the testbed's 1 Gb quad-port NIC).
    pub mgmt_bandwidth_bps: u64,
    /// Base size of the NFP firmware image (loader, islands' runtime)
    /// beyond the compiled lambda words.
    pub nic_firmware_base_bytes: u64,
    /// NIC driver unbind/rebind + island bring-up after flashing.
    pub nic_driver_reload: SimDuration,
    /// Base size of the Python service artifact (wheels + deps).
    pub bare_metal_base_bytes: u64,
    /// Interpreter + service start on bare metal.
    pub bare_metal_start: SimDuration,
    /// Base size of the Docker image.
    pub container_image_base_bytes: u64,
    /// Layer-extraction throughput.
    pub container_extract_bps: u64,
    /// dockerd/kubelet pod setup.
    pub container_pod_setup: SimDuration,
    /// OpenFaaS watchdog + function init inside the container.
    pub container_function_init: SimDuration,
}

impl Default for DeployParams {
    fn default() -> Self {
        DeployParams {
            mgmt_bandwidth_bps: 1_000_000_000,
            nic_firmware_base_bytes: 11 << 20,
            nic_driver_reload: SimDuration::from_millis(10_700),
            bare_metal_base_bytes: 17 << 20,
            bare_metal_start: SimDuration::from_millis(4_850),
            container_image_base_bytes: 153 << 20,
            container_extract_bps: 480_000_000, // ~60 MB/s
            container_pod_setup: SimDuration::from_millis(19_500),
            container_function_init: SimDuration::from_millis(8_300),
        }
    }
}

impl DeployParams {
    /// The deployable artifact size for `kind` (Table 4's "workload
    /// size"), given the compiled firmware (its words and object data
    /// ride on top of each backend's base artifact).
    pub fn artifact_bytes(
        &self,
        kind: BackendKind,
        firmware: &Firmware<impl Borrow<Program>>,
    ) -> u64 {
        let payload = firmware.size_bytes();
        match kind {
            BackendKind::Nic => self.nic_firmware_base_bytes + payload,
            BackendKind::BareMetal => self.bare_metal_base_bytes + payload,
            BackendKind::Container => self.container_image_base_bytes + payload,
        }
    }

    /// Transfer time of `bytes` over the management network.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(
            (bytes as u128 * 8 * 1_000_000_000 / self.mgmt_bandwidth_bps as u128) as u64,
        )
    }

    /// Install time after download for `kind` (excluding the NIC
    /// firmware swap itself, which the NIC model charges when the
    /// [`lnic_nic::LoadFirmware`] message lands).
    pub fn install_time(&self, kind: BackendKind, artifact_bytes: u64) -> SimDuration {
        match kind {
            BackendKind::Nic => self.nic_driver_reload,
            BackendKind::BareMetal => self.bare_metal_start,
            BackendKind::Container => {
                let extract = SimDuration::from_nanos(
                    (artifact_bytes as u128 * 8 * 1_000_000_000
                        / self.container_extract_bps as u128) as u64,
                );
                extract + self.container_pod_setup + self.container_function_init
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnic_mlambda::compile::{compile, CompileOptions};
    use lnic_workloads::{image_program, SuiteConfig};

    fn firmware() -> Firmware {
        compile(
            &image_program(&SuiteConfig::default()),
            &CompileOptions::optimized(),
        )
        .expect("image program compiles")
    }

    #[test]
    fn artifact_sizes_order_matches_table4() {
        let p = DeployParams::default();
        let fw = firmware();
        let nic = p.artifact_bytes(BackendKind::Nic, &fw);
        let bm = p.artifact_bytes(BackendKind::BareMetal, &fw);
        let ct = p.artifact_bytes(BackendKind::Container, &fw);
        assert!(nic < bm, "nic {nic} < bm {bm}");
        assert!(bm < ct, "bm {bm} < container {ct}");
        // Container ~13x the NIC artifact (Table 4: 153 vs 11 MiB).
        let ratio = ct as f64 / nic as f64;
        assert!((10.0..16.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn transfer_time_scales_with_size() {
        let p = DeployParams::default();
        assert_eq!(
            p.transfer_time(125_000_000), // 1 Gb
            SimDuration::from_secs(1)
        );
    }

    #[test]
    fn install_ordering_bm_fastest_container_slowest() {
        let p = DeployParams::default();
        let fw = firmware();
        let nic_total = p.transfer_time(p.artifact_bytes(BackendKind::Nic, &fw))
            + p.install_time(BackendKind::Nic, p.artifact_bytes(BackendKind::Nic, &fw))
            + SimDuration::from_secs(9); // firmware swap inside the NIC
        let bm_total = p.transfer_time(p.artifact_bytes(BackendKind::BareMetal, &fw))
            + p.install_time(
                BackendKind::BareMetal,
                p.artifact_bytes(BackendKind::BareMetal, &fw),
            );
        let ct_total = p.transfer_time(p.artifact_bytes(BackendKind::Container, &fw))
            + p.install_time(
                BackendKind::Container,
                p.artifact_bytes(BackendKind::Container, &fw),
            );
        assert!(bm_total < nic_total, "bm {bm_total} < nic {nic_total}");
        assert!(nic_total < ct_total, "nic {nic_total} < ct {ct_total}");
        // λ-NIC's extra delay over bare metal stays well under the
        // container's overhead (§6.4: "keeps the additional delay over
        // bare-metal backends 2x less than the container overhead").
        let nic_extra = nic_total - bm_total;
        let ct_extra = ct_total - bm_total;
        assert!(nic_extra.as_nanos() < ct_extra.as_nanos());
    }
}
