//! Regenerates the paper's Figure 13: relative speedup of Futhark over the
//! reference implementation per benchmark per device, as an ASCII chart.

use futhark::Device;

fn bar(x: f64) -> String {
    let n = ((x.min(8.0)) * 6.0) as usize;
    let mut s = String::new();
    for _ in 0..n {
        s.push('#');
    }
    if x > 8.0 {
        s.push('>');
    }
    s
}

fn main() {
    println!("Figure 13: Relative speedup compared to reference implementations");
    println!("(simulated; paper's measured speedups in parentheses)");
    println!("{:-<100}", "");
    let run = futhark_bench::run_options_from_env();
    for b in futhark_bench::all_benchmarks() {
        let nv = (|| -> Result<f64, futhark::Error> {
            let fut = b.run_futhark(Device::Gtx780, run)?.total_ms();
            let rf = b.run_reference(Device::Gtx780, run)?;
            Ok(rf / fut)
        })();
        let paper_nv = b.paper.nv_ref.map(|r| r / b.paper.nv_fut);
        match nv {
            Ok(x) => println!(
                "{:<14} GTX780 {:>6.2}x (paper {:>5}) |{}",
                b.name,
                x,
                paper_nv.map(|p| format!("{p:.2}x")).unwrap_or("—".into()),
                bar(x)
            ),
            Err(e) => println!("{:<14} GTX780 ERROR: {e}", b.name),
        }
        if b.amd_reference {
            let amd = (|| -> Result<f64, futhark::Error> {
                let fut = b.run_futhark(Device::W8100, run)?.total_ms();
                let rf = b.run_reference(Device::W8100, run)?;
                Ok(rf / fut)
            })();
            let paper_amd = match (b.paper.amd_ref, b.paper.amd_fut) {
                (Some(r), Some(f)) => Some(r / f),
                _ => None,
            };
            match amd {
                Ok(x) => println!(
                    "{:<14} W8100  {:>6.2}x (paper {:>5}) |{}",
                    "",
                    x,
                    paper_amd.map(|p| format!("{p:.2}x")).unwrap_or("—".into()),
                    bar(x)
                ),
                Err(e) => println!("{:<14} W8100  ERROR: {e}", "",),
            }
        }
    }
}
