//! The flight recorder survives panic → handoff → recovery end-to-end for
//! every Table 5 application workload.

use ow_apps::{make_workload, workload::TABLE5_APPS, Workload};
use ow_core::{microreboot, OtherworldConfig, PolicySource, ResurrectionPolicy};
use ow_faultinject::campaign_machine_config;
use ow_kernel::{KernelConfig, PanicCause};
use ow_trace::Counter;

#[test]
fn flight_survives_for_every_app_workload() {
    for &app in TABLE5_APPS.iter() {
        let mut k =
            ow_apps::boot(campaign_machine_config(), KernelConfig::default()).expect("cold boot");
        let mut w = make_workload(app, 9);
        w.start(&mut k, 6);
        k.do_panic(PanicCause::Oops("e2e flight"));

        let config = OtherworldConfig {
            policy: PolicySource::Inline(ResurrectionPolicy::only([w.name()])),
            ..OtherworldConfig::default()
        };
        let (_k2, report) = microreboot(k, &config).expect("microreboot");
        let flight = &report.flight;
        assert!(flight.header_valid, "{app}: header lost");
        assert!(!flight.events.is_empty(), "{app}: empty flight record");
        assert!(
            flight.last_event().expect("events").is_panic_step(),
            "{app}: last event not a panic step: {:?}",
            flight.last_event()
        );
        assert!(
            flight.metrics.counter(Counter::Syscalls) > 0,
            "{app}: no syscalls on record"
        );
        assert_eq!(flight.corrupt_records, 0, "{app}: unexpected corruption");
    }
}
