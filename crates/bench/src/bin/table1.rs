//! Regenerates the paper's Table 1: average runtimes (ms) of the reference
//! implementation and the Futhark-compiled code on both simulated devices.
//!
//! Absolute numbers are not comparable to the paper's (our substrate is a
//! simulator at scaled dataset sizes); the *shape* — who wins and by
//! roughly what factor — is the reproduction target. The paper's numbers
//! are printed alongside.

use futhark::Device;

fn main() {
    let verify = std::env::args().any(|a| a == "--verify");
    println!("Table 1: Average benchmark runtimes in milliseconds (simulated)");
    println!("{:-<128}", "");
    println!(
        "{:<14} | {:>10} {:>10} {:>7} | {:>10} {:>10} {:>7} | paper NV ref/fut (speedup), AMD ref/fut",
        "Benchmark", "NV ref", "NV fut", "x", "AMD ref", "AMD fut", "x"
    );
    println!("{:-<128}", "");
    let run = futhark_bench::run_options_from_env();
    for b in futhark_bench::all_benchmarks() {
        if verify {
            if let Err(e) = b.verify(run) {
                println!("{:<14} | VERIFY FAILED: {e}", b.name);
                continue;
            }
        }
        let row = (|| -> Result<String, futhark::Error> {
            let nv_fut = b.run_futhark(Device::Gtx780, run)?.total_ms();
            let nv_ref = b.run_reference(Device::Gtx780, run)?;
            let (amd_ref_s, amd_fut_s, amd_x) = {
                let amd_fut = b.run_futhark(Device::W8100, run)?.total_ms();
                if b.amd_reference {
                    let amd_ref = b.run_reference(Device::W8100, run)?;
                    (
                        format!("{amd_ref:>10.2}"),
                        format!("{amd_fut:>10.2}"),
                        format!("{:>7.2}", amd_ref / amd_fut),
                    )
                } else {
                    (
                        "         —".to_string(),
                        format!("{amd_fut:>10.2}"),
                        "      —".to_string(),
                    )
                }
            };
            let paper = {
                let p = &b.paper;
                let nv = match p.nv_ref {
                    Some(r) => format!("{r}/{} ({:.2}x)", p.nv_fut, r / p.nv_fut),
                    None => format!("—/{}", p.nv_fut),
                };
                let amd = match (p.amd_ref, p.amd_fut) {
                    (Some(r), Some(f)) => format!("{r}/{f} ({:.2}x)", r / f),
                    (None, Some(f)) => format!("—/{f}"),
                    _ => "—".into(),
                };
                format!("{nv}, {amd}")
            };
            Ok(format!(
                "{:<14} | {:>10.2} {:>10.2} {:>7.2} | {} {} {} | {}",
                b.name,
                nv_ref,
                nv_fut,
                nv_ref / nv_fut,
                amd_ref_s,
                amd_fut_s,
                amd_x,
                paper
            ))
        })();
        match row {
            Ok(r) => println!("{r}"),
            Err(e) => println!("{:<14} | ERROR: {e}", b.name),
        }
    }
    println!("{:-<128}", "");
    println!("x = reference time / Futhark time (>1 means Futhark is faster).");
}
