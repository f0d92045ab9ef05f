//! The Fig. 3 walkthrough: how the token pacer and the QoE metric interact.
//!
//! A scripted answering stream generates tokens faster than the user reads,
//! pauses (preemption), and resumes. The pacer buffers the burst; QoE drops
//! only once the buffer runs dry and the user starves. The stream is kept
//! as the engine keeps it, a [`StallCurve`]: its pacer deadline is
//! `first + len × TPOT`, and the reader starves from that instant on.
//!
//! Run with: `cargo run --release --example qoe_pacer_demo`

use pascal::metrics::{qoe_of_stream, StallCurve};
use pascal::sim::{SimDuration, SimTime};

fn main() {
    let tpot = SimDuration::from_millis(100); // the user reads 10 tokens/s
    let secs = SimTime::from_secs_f64;

    // Phase (i): 12 tokens generated at 40 ms — faster than the reading pace.
    // Phase (ii)+(iii): the serving system pauses for 2.5 s.
    // Phase (iv): generation resumes on pace.
    let mut times = Vec::new();
    for i in 0..12 {
        times.push(secs(0.04 * f64::from(i)));
    }
    let pause_end = 0.44 + 2.5;
    for i in 0..10 {
        times.push(secs(pause_end + 0.1 * f64::from(i)));
    }

    let mut curve = StallCurve::new(tpot);
    println!("t(s)    generated  expected  buffer   state");
    let mut next = 0usize;
    let mut probe = 0.0f64;
    while probe <= pause_end + 1.0 {
        while next < times.len() && times[next].as_secs_f64() <= probe {
            curve.push(times[next]);
            next += 1;
        }
        let at = secs(probe);
        // The reader takes the first token at once, then one per TPOT.
        let expected = curve
            .first()
            .filter(|&first| at >= first)
            .map_or(0, |first| {
                1 + at.saturating_since(first).as_nanos() / tpot.as_nanos()
            });
        let balance = i64::from(curve.len()) - expected as i64;
        let state = if curve.on_pace_until().is_none_or(|due| at < due) {
            "smooth"
        } else {
            "STARVED (Fig. 3(iii))"
        };
        println!(
            "{probe:>5.2}   {:>9}  {:>8}  {:>6}   {state}",
            curve.len(),
            expected,
            balance,
        );
        probe += 0.4;
    }

    let qoe = qoe_of_stream(&times, times[0], tpot);
    println!("\nQoE of the full stream: {qoe:.3} (1.0 = never starved)");

    // The same stream without the pause scores a perfect 1.0.
    let smooth: Vec<SimTime> = (0..22).map(|i| secs(0.1 * f64::from(i))).collect();
    println!(
        "QoE without the pause:  {:.3}",
        qoe_of_stream(&smooth, smooth[0], tpot)
    );
}
