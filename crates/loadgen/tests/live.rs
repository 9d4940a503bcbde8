//! Live smoke tests: the generator drives a real striped server over TCP
//! (event-driven accept loop, the default). One run enables the
//! connection-churn scenario, one mixes in a `suggest` share; in both the
//! report must be clean — every request answered, percentiles monotone,
//! throughput positive.

use sider_loadgen::{run, Endpoint, LoadConfig};
use sider_server::{Server, ServerConfig};

fn base_config(addr: String) -> LoadConfig {
    LoadConfig {
        addr,
        sessions: 4,
        requests: 24,
        rps: 300.0,
        workers: 4,
        seed: 7,
        churn: false,
        suggest: 0.0,
    }
}

fn with_live_server(test: impl FnOnce(String)) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_sessions: 32,
        threads: Some(1),
        stripes: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let joiner = std::thread::spawn(move || server.run());
    test(addr.to_string());
    handle.shutdown();
    joiner.join().unwrap().unwrap();
}

#[test]
fn open_loop_run_against_a_live_striped_server() {
    with_live_server(|addr| {
        let mut config = base_config(addr);
        config.churn = true;
        let report = run(&config).expect("load run");

        assert_eq!(report.total_requests, 4 + 24);
        assert_eq!(report.total_errors, 0, "every request must succeed");
        assert_eq!(
            report.churn_conns, 24,
            "one churn connection per scheduled request"
        );
        assert!(report.throughput_rps > 0.0);
        let mut mixed_requests = 0;
        for (endpoint, stats) in &report.endpoints {
            assert_eq!(stats.errors, 0);
            if *endpoint == Endpoint::Create {
                assert_eq!(stats.requests, 4);
            } else {
                mixed_requests += stats.requests;
            }
            if stats.requests > 0 {
                assert!(
                    stats.p50_ns <= stats.p99_ns && stats.p99_ns <= stats.p999_ns,
                    "{endpoint:?}: percentiles must be monotone"
                );
                assert!(stats.throughput_rps > 0.0);
            }
        }
        assert_eq!(mixed_requests, 24, "every scheduled request was sent");
    });
}

#[test]
fn suggest_mix_serves_without_errors() {
    with_live_server(|addr| {
        let mut config = base_config(addr);
        // Half the mixed phase is guided-exploration traffic: enough
        // volume that a broken suggest path cannot hide in the mix.
        config.suggest = 0.5;
        config.requests = 40;
        let report = run(&config).expect("load run");

        assert_eq!(report.total_requests, 4 + 40);
        assert_eq!(
            report.total_errors, 0,
            "every request (suggest included) must succeed"
        );
        let suggest = report
            .endpoints
            .iter()
            .find(|(e, _)| *e == Endpoint::Suggest)
            .map(|(_, s)| s)
            .expect("suggest stats in the report");
        assert!(
            suggest.requests > 0,
            "a 50% share must schedule suggest traffic"
        );
        assert_eq!(suggest.errors, 0);
        assert!(
            suggest.p50_ns <= suggest.p99_ns && suggest.p99_ns <= suggest.p999_ns,
            "suggest percentiles must be monotone"
        );
    });
}
