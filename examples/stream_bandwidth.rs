//! McCalpin STREAM on the four memory systems — the benchmark the
//! paper uses to contextualize the Alpha 21174's hot-row management
//! (§2.4.1).
//!
//! Run with: `cargo run --example stream_bandwidth --release`

use pva::kernels::{StreamKernel, SystemKind};

fn main() {
    const ELEMENTS: u64 = 4096;
    const MHZ: f64 = 100.0;
    println!("STREAM sustained bandwidth (MB/s at {MHZ:.0} MHz, {ELEMENTS} elements)\n");
    print!("{:<10}", "kernel");
    for sys in SystemKind::ALL {
        print!("{:>18}", sys.name());
    }
    println!();
    for k in StreamKernel::ALL {
        print!("{:<10}", k.name());
        for sys in SystemKind::ALL {
            let bw = k.bandwidth(sys.build().as_mut(), ELEMENTS);
            print!("{:>18.0}", bw * MHZ);
        }
        println!();
    }
    println!(
        "\nunit-stride STREAM: the PVA runs near the bus limit (800 MB/s peak at\n\
         64 bits x 100 MHz); the cache-line system is held to 640 MB/s by its\n\
         20-cycle fill per 128-byte line"
    );
}
